// Command citeperf is the repository's end-to-end benchmark: it drives an
// in-process citeserved server (server.Server with shipped defaults over a
// durable data dir holding the GtoPdb fixture) through a loopback HTTP
// listener with a seeded, fixed-length op list, checks every reply, and
// prints one JSON result line.
//
//	bash citeperf/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics from a traced replay of the same op list (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/server"
	"repro/internal/storage"
)

// setupRuns is the number of measured set-ups per run, after one warm-up;
// setup_s is their median.
const setupRuns = 7

func main() {
	workload := flag.String("workload", "", "workload: hot-read, long-tail or write-mix")
	seed := flag.Int64("seed", 1, "seed of the generated op list")
	seconds := flag.Int("seconds", 10, "run length; sizes the op list (work is fixed, not time)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "citeperf:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(workload string, seed int64, seconds int, traced bool) error {
	p, err := newPlan(workload, seed, seconds)
	if err != nil {
		return err
	}
	work, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	stampEnv(p, work)

	m, out, err := measure(p, work)
	if err != nil {
		return err
	}
	res := result{Metrics: m.endToEnd()}
	if traced {
		layers, tout, err := traceRun(p, work, m)
		if err != nil {
			return err
		}
		res.Metrics = layers
		out.errs = append(out.errs, tout.errs...)
		out.problems = append(out.problems, tout.problems...)
		out.attempted += tout.attempted
		out.failed += tout.failed
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "failed op:", e)
	}
	for _, pr := range out.problems {
		fmt.Fprintln(os.Stderr, "INCORRECT:", pr)
	}
	res.Correct = len(out.problems) == 0
	report(os.Stderr, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome is a run's op accounting and correctness findings.
type outcome struct {
	attempted, failed int
	errs              []string
	problems          []string
}

func newOutcome(problems []string, phases ...*phaseResult) *outcome {
	out := &outcome{problems: problems}
	for _, r := range phases {
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return out
}

// measurement is everything one untraced replay observed.
type measurement struct {
	setup     []float64 // s, one per set-up
	phase     *phaseResult
	wall      time.Duration
	heapBytes uint64
	recover   time.Duration // core.Open of the run's data dir
	ckptLoad  time.Duration // checkpoint load alone
	replayLog time.Duration // log replay alone

	// Counter deltas over the timed phase.
	cache      server.CacheStats
	gen        genCounters
	columnar   storage.ColumnarStats
	logBytes   int64
	userBytes  int64
	totalAlloc uint64
	gcCycles   uint32
}

type genCounters struct{ plans, branches, views int64 }

// measure sets the system up setupRuns times, replays the plan once with
// tracing off on the last set-up, then checks every output and times
// recovery of the run's data dir.
func measure(p *plan, work string) (*measurement, *outcome, error) {
	m := &measurement{}
	var in *instance
	// Set-up 0 is a warm-up: the first set-up in a process also pays for
	// growing the heap from the OS, which later ones reuse.
	for i := range setupRuns + 1 {
		runtime.GC()
		inst, d, err := startInstance(filepath.Join(work, fmt.Sprintf("setup-%d", i)), len(p.streams))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			m.setup = append(m.setup, d.Seconds())
		}
		if i < setupRuns {
			if err := inst.stop(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(inst.dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		in = inst
	}
	tr := newTracker()
	warm := replay(in.client, p.warm, tr, nil, 0, 0)

	fullGC()
	before := snapshot(in)
	m.phase, m.wall = replayTimed(in.client, p, tr, nil)
	fullGC()
	after := snapshot(in)
	m.heapBytes = after.mem.HeapAlloc
	m.deltas(before, after)
	for _, s := range append([][]op{p.writes}, p.streams...) {
		for i := range s {
			if s[i].kind == opIngest {
				m.userBytes += int64(len(s[i].body))
			}
		}
	}

	check := verifyPass(in.client, tr)
	latest := in.sys.Store().Latest()
	digest := fixity.DatabaseDigest(in.sys.Database())
	if err := in.stop(); err != nil {
		return nil, nil, err
	}
	// Drop the live system before timing recovery, so the collector does
	// not mark it while core.Open runs.
	dir := in.dir
	in = nil
	recovered, err := m.recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	checkRecovered(tr, recovered, latest, digest)
	// The cold recompute runs on a fresh System: the recovered one where
	// the workload wrote what its cites read, else one rebuilt from the
	// seed.
	cold := recovered
	if p.workload != "write-mix" {
		if cold, err = rebuild(p); err != nil {
			return nil, nil, err
		}
	}
	checkRecompute(cold, tr)

	return m, newOutcome(tr.problems, warm, m.phase, check), nil
}

// fullGC collects twice: the first collection moves sync.Pool contents to
// their victim caches, where they still count as live heap; the second
// frees them, so the live heap does not depend on timing.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

// counters is a point-in-time reading of everything measured as a delta.
type counters struct {
	cache    server.CacheStats
	gen      genCounters
	columnar storage.ColumnarStats
	logBytes int64
	mem      runtime.MemStats
}

func snapshot(in *instance) counters {
	var c counters
	c.cache = in.srv.CacheStats()
	g := in.sys.Generator().Counters()
	c.gen = genCounters{plans: g.PlansEvicted, branches: g.BranchesEvicted, views: g.ViewsEvicted}
	c.columnar = storage.ColumnarUsage()
	if d, ok := in.sys.Durability(); ok {
		c.logBytes = d.BytesSinceCheckpoint
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func (m *measurement) deltas(b, a counters) {
	m.cache = server.CacheStats{
		Hits:        a.cache.Hits - b.cache.Hits,
		Misses:      a.cache.Misses - b.cache.Misses,
		Coalesced:   a.cache.Coalesced - b.cache.Coalesced,
		Evictions:   a.cache.Evictions - b.cache.Evictions,
		Kept:        a.cache.Kept - b.cache.Kept,
		Invalidated: a.cache.Invalidated - b.cache.Invalidated,
	}
	m.gen = genCounters{
		plans:    a.gen.plans - b.gen.plans,
		branches: a.gen.branches - b.gen.branches,
		views:    a.gen.views - b.gen.views,
	}
	m.columnar = storage.ColumnarStats{
		BlocksBuilt: a.columnar.BlocksBuilt - b.columnar.BlocksBuilt,
		CodeBytes:   a.columnar.CodeBytes - b.columnar.CodeBytes,
	}
	m.logBytes = a.logBytes - b.logBytes
	m.totalAlloc = a.mem.TotalAlloc - b.mem.TotalAlloc
	m.gcCycles = a.mem.NumGC - b.mem.NumGC
}

// recoverDir times core.Open of the data dir, then the durable layer's
// own parts of it: checkpoint load, and log replay with nothing applied.
// It returns the recovered system, detached from the log.
func (m *measurement) recoverDir(dir string) (*core.System, error) {
	fullGC()
	start := time.Now()
	sys, err := core.Open(dir, core.DurableOptions{})
	m.recover = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := sys.CloseDurability(); err != nil {
		return nil, err
	}
	start = time.Now()
	ckpt, err := durable.LoadCheckpoint(dir)
	m.ckptLoad = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	var watermark uint64
	if ckpt != nil {
		watermark = ckpt.Watermark
	}
	start = time.Now()
	_, err = durable.Replay(dir, watermark, func(uint64, durable.Entry) error { return nil })
	m.replayLog = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("replay log: %w", err)
	}
	return sys, nil
}

// endToEnd derives the end-to-end metrics.
func (m *measurement) endToEnd() metrics {
	out := metrics{}
	cites, ingests, commits := m.phase.lat[opCite], m.phase.lat[opIngest], m.phase.lat[opCommit]
	out.set("setup_s", median(m.setup), "s")
	out.set("cite_p50_ms", percentile(cites, 0.50), "ms")
	out.set("cite_p99_ms", percentile(cites, 0.99), "ms")
	done := len(cites) + len(ingests) + len(commits)
	out.set("ops_per_s", float64(done)/m.wall.Seconds(), "1/s")
	out.set("ingest_p50_ms", percentile(ingests, 0.50), "ms")
	out.set("ingest_p99_ms", percentile(ingests, 0.99), "ms")
	out.set("commit_p50_ms", percentile(commits, 0.50), "ms")
	out.set("commit_p90_ms", percentile(commits, 0.90), "ms")
	out.set("recover_s", m.recover.Seconds(), "s")
	out.set("heap_mb", float64(m.heapBytes)/(1<<20), "MB")
	return out
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
