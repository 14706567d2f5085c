package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/citation"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/storage"
)

// residualFlag is the share of root-span time left unattributed to child
// spans above which the traced run flags its attribution as incomplete.
const residualFlag = 0.15

// spanRec is one recorded span. Parent is -1 for a root. N carries the
// span's work count where it has one (candidates, tuples, records, ...).
type spanRec struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s *spanRec) us() float64 { return float64(s.End-s.Start) / 1e3 }

// spanLog holds one client stream's spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []spanRec
}

func (l *spanLog) open(name string, op, parent int, start time.Time) int {
	l.spans = append(l.spans, spanRec{Name: name, Op: op, ID: len(l.spans), Parent: parent, Start: start.Sub(l.base).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) close(id int, end time.Time, n int64) {
	l.spans[id].End = end.Sub(l.base).Nanoseconds()
	l.spans[id].N = n
}

func (l *spanLog) add(name string, op, parent int, start, end time.Time, n int64) {
	l.close(l.open(name, op, parent, start), end, n)
}

// tracer records each op's spans and mirrors the op on a twin System fed
// the identical ingest/commit stream, so every cite the server answered
// with "cache": "miss" is replayed through the public calls core makes —
// cq.Parse, Generator().CiteContext, Store().ExecuteContext,
// server.NewCiteResult + JSON — each in its own span. Probe calls into
// single layers (rewrite, eval, policy, digest, envelope encode) run after
// the op's root span closes.
type tracer struct {
	twin *core.System
	ctx  context.Context
	par  int
	logs []*spanLog // one per client stream

	mu       sync.Mutex
	problems []string
}

func (t *tracer) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// after runs once op id has completed: sent at t0, reply read at t1,
// reply decoded at t2. wc is the decoded reply of a cite, nil otherwise.
func (t *tracer) after(stream, id int, o *op, wc *wireCite, t0, t1, t2 time.Time) error {
	l := t.logs[stream]
	root := l.open("op."+o.kind.String(), id, -1, t0)
	l.add("server", id, root, t0, t1, 0)
	if wc != nil {
		l.add("decode", id, root, t1, t2, 0)
	}
	var miss *twinCite
	switch o.kind {
	case opCite:
		if wc.Result.Cache == "miss" {
			tc, err := t.cite(l, id, root, o)
			if err != nil {
				return err
			}
			if fingerprint(tc.wire, false) != fingerprint(wc.Result, false) {
				t.fail("%s: twin citation differs from the served one", o.key())
			}
			miss = tc
		}
	case opIngest:
		start := time.Now()
		if err := applyIngest(t.twin, o); err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		l.add("core.ingest", id, root, start, time.Now(), 0)
	case opCommit:
		start := time.Now()
		if _, _, _, err := t.twin.CommitDelta("twin " + string(o.body)); err != nil {
			return fmt.Errorf("twin commit: %w", err)
		}
		l.add("core.commit", id, root, start, time.Now(), 0)
	}
	l.close(root, time.Now(), 0)
	return t.probe(l, id, o, wc, miss)
}

// twinCite is a twin replay's output, kept for the probes.
type twinCite struct {
	q    *cq.Query
	db   *storage.Database
	res  *citation.Result
	wire *wireResult
}

// cite replays one cite on the twin under a "core" span.
func (t *tracer) cite(l *spanLog, id, root int, o *op) (*twinCite, error) {
	sp := l.open("core", id, root, time.Now())
	start := time.Now()
	q, err := cq.Parse(o.query)
	l.add("parse", id, sp, start, time.Now(), 0)
	if err != nil {
		return nil, fmt.Errorf("twin parse: %w", err)
	}
	store := t.twin.Store()
	req := citation.Request{Parallelism: t.par}
	v := fixity.Version(o.version)
	db := t.twin.Database()
	if v > 0 {
		if db, err = store.At(v); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		req.DB, req.Version = db, int(v)
	} else {
		v = store.Latest()
	}
	start = time.Now()
	res, err := t.twin.Generator().CiteContext(t.ctx, q, req)
	if err != nil {
		return nil, fmt.Errorf("twin cite: %w", err)
	}
	l.add("citation", id, sp, start, time.Now(), int64(res.Stats.AtomsResolved))
	start = time.Now()
	_, pin, err := store.ExecuteContext(t.ctx, q, v)
	if err != nil {
		return nil, fmt.Errorf("twin pin: %w", err)
	}
	l.add("fixity", id, sp, start, time.Now(), 0)
	start = time.Now()
	raw, err := json.Marshal(server.NewCiteResult(o.query, &core.Citation{Result: res, Pin: &pin}))
	if err != nil {
		return nil, fmt.Errorf("twin encode: %w", err)
	}
	l.add("encode", id, sp, start, time.Now(), int64(len(raw)))
	l.close(sp, time.Now(), 0)
	var w wireResult
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("twin decode: %w", err)
	}
	return &twinCite{q: q, db: db, res: res, wire: &w}, nil
}

// probe times single-layer calls after the op's root span has closed.
func (t *tracer) probe(l *spanLog, id int, o *op, wc *wireCite, miss *twinCite) error {
	if wc != nil {
		start := time.Now()
		raw, err := json.Marshal(wc)
		if err != nil {
			return fmt.Errorf("probe encode: %w", err)
		}
		l.add("probe.encode", id, -1, start, time.Now(), int64(len(raw)))
	}
	if miss != nil {
		gen := t.twin.Generator()
		start := time.Now()
		rw, err := rewrite.Rewrite(miss.q, t.twin.Registry().ViewQueries(), rewrite.Options{Method: gen.Method, MaxRewritings: gen.MaxRewritings})
		if err != nil {
			return fmt.Errorf("probe rewrite: %w", err)
		}
		l.add("probe.rewrite", id, -1, start, time.Now(), int64(rw.CandidatesExamined))
		start = time.Now()
		tuples, err := eval.EvalContext(t.ctx, miss.db, miss.q)
		if err != nil {
			return fmt.Errorf("probe eval: %w", err)
		}
		l.add("probe.eval", id, -1, start, time.Now(), int64(len(tuples)))
		records := make([]format.Record, len(miss.res.Tuples))
		for i := range miss.res.Tuples {
			records[i] = miss.res.Tuples[i].Record
		}
		pol := gen.Policy()
		start = time.Now()
		pol.EvalAgg(records)
		l.add("probe.policy", id, -1, start, time.Now(), int64(len(records)))
	}
	if o.kind == opCommit {
		start := time.Now()
		fixity.DatabaseDigest(t.twin.Database())
		l.add("probe.digest", id, -1, start, time.Now(), 0)
	}
	return nil
}

// traceRun replays the plan traced, on a fresh instance and twin, and
// derives the per-layer metrics from its spans and from the counters of
// the untraced measurement m.
func traceRun(p *plan, work string, m *measurement) (metrics, *outcome, error) {
	in, _, err := startInstance(filepath.Join(work, "traced"), len(p.streams))
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	twin, err := newSystem(filepath.Join(work, "twin"))
	if err != nil {
		_ = in.stop() // already failing; the twin error is the one to report
		return nil, nil, fmt.Errorf("twin set-up: %w", err)
	}
	base := time.Now()
	t := &tracer{twin: twin, ctx: context.Background(), par: runtime.GOMAXPROCS(0)}
	for range p.streams {
		t.logs = append(t.logs, &spanLog{base: base})
	}
	tr := newTracker()
	warm := replay(in.client, p.warm, tr, t, 0, 0)
	fullGC()
	phase, _ := replayTimed(in.client, p, tr, t)
	if err := in.stop(); err != nil {
		return nil, nil, err
	}
	if err := twin.CloseDurability(); err != nil {
		return nil, nil, err
	}

	var spans []spanRec
	for _, l := range t.logs {
		off := len(spans)
		for _, s := range l.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
	}
	if err := writeSpans(p, spans); err != nil {
		return nil, nil, err
	}
	out := newOutcome(append(tr.problems, t.problems...), warm, phase)
	layers := layerMetrics(spans, m)

	untraced := percentile(m.phase.lat[opCite], 0.5)
	tracedP50 := percentile(phase.lat[opCite], 0.5)
	fmt.Fprintf(os.Stderr, "tracing overhead: cite_p50_ms %.4f traced vs %.4f untraced (%+.4f ms)\n",
		tracedP50, untraced, tracedP50-untraced)
	if f := layers["core.residual_frac"].Value; f > residualFlag {
		fmt.Fprintf(os.Stderr, "FLAG: core.residual_frac %.3f is above %.2f: spans leave root time unattributed\n", f, residualFlag)
	}
	return layers, out, nil
}

// writeSpans writes the run's spans as JSON lines under .bench_build.
func writeSpans(p *plan, spans []spanRec) error {
	dir := filepath.Join(".bench_build", "citeperf", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", p.workload, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics.
func layerMetrics(spans []spanRec, m *measurement) metrics {
	us := map[string][]float64{} // span name → durations (µs)
	ns := map[string][]float64{} // span name → work counts
	children := make([]float64, len(spans))
	coreOf := map[int]float64{} // op id → twin "core" µs
	for i := range spans {
		s := &spans[i]
		us[s.Name] = append(us[s.Name], s.us())
		ns[s.Name] = append(ns[s.Name], float64(s.N))
		if s.Parent >= 0 {
			children[s.Parent] += s.us()
		}
		if s.Name == "core" {
			coreOf[s.Op] = s.us()
		}
	}
	// Attribution: time inside root ("op.*") and "core" spans that no
	// child span covers, as a share of all root time.
	var residual, rootTotal float64
	var self []float64
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "op."):
			rootTotal += s.us()
			residual += s.us() - children[i]
		case s.Name == "core":
			residual += s.us() - children[i]
		case s.Name == "server" && spans[s.Parent].Name == "op.cite":
			self = append(self, s.us()-coreOf[s.Op])
		}
	}

	out := metrics{}
	out.set("server.self_us", median(self), "us")
	out.set("server.encode_us", median(us["probe.encode"]), "us")
	out.set("server.hit_ratio", ratio(float64(m.cache.Hits), float64(m.cache.Hits+m.cache.Misses+m.cache.Coalesced)), "ratio")
	out.set("server.evictions", float64(m.cache.Evictions), "count")
	out.set("server.kept_ratio", ratio(float64(m.cache.Kept), float64(m.cache.Kept+m.cache.Invalidated)), "ratio")
	out.set("cq.parse_us", median(us["parse"]), "us")
	out.set("rewrite.us", median(us["probe.rewrite"]), "us")
	out.set("rewrite.candidates", mean(ns["probe.rewrite"]), "count")
	out.set("citation.cite_us", median(us["citation"]), "us")
	out.set("citation.atoms_resolved", mean(ns["citation"]), "count")
	out.set("citation.plans_evicted", float64(m.gen.plans), "count")
	out.set("citation.branches_evicted", float64(m.gen.branches), "count")
	out.set("citation.views_evicted", float64(m.gen.views), "count")
	out.set("eval.us", median(us["probe.eval"]), "us")
	out.set("eval.tuples_out", mean(ns["probe.eval"]), "count")
	out.set("policy.agg_us", median(us["probe.policy"]), "us")
	out.set("policy.records_in", mean(ns["probe.policy"]), "count")
	out.set("fixity.pin_us", median(us["fixity"]), "us")
	out.set("fixity.digest_ms", median(us["probe.digest"])/1e3, "ms")
	out.set("storage.blocks_built", float64(m.columnar.BlocksBuilt), "count")
	out.set("storage.code_bytes", float64(m.columnar.CodeBytes), "bytes")
	out.set("durable.log_bytes_per_user_byte", ratio(float64(m.logBytes), float64(m.userBytes)), "ratio")
	out.set("durable.ckpt_load_s", m.ckptLoad.Seconds(), "s")
	out.set("durable.replay_s", m.replayLog.Seconds(), "s")
	out.set("core.cite_us", median(us["core"]), "us")
	out.set("core.ingest_us", median(us["core.ingest"]), "us")
	out.set("core.commit_ms", median(us["core.commit"])/1e3, "ms")
	ops := len(m.phase.lat[opCite]) + len(m.phase.lat[opIngest]) + len(m.phase.lat[opCommit])
	out.set("core.alloc_kb_per_op", ratio(float64(m.totalAlloc)/1024, float64(ops)), "KB")
	out.set("core.gc_cycles", float64(m.gcCycles), "count")
	out.set("core.residual_frac", ratio(residual, rootTotal), "ratio")
	return out
}
