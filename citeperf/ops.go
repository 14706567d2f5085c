package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/experiments"
)

// Fixture and op-list sizing. Work is fixed per (workload, seed, seconds):
// the op list is generated up front and replayed in order, so cache
// contents, heap, log length and recovery work are a function of the
// arguments only, never of how fast the machine ran.
const (
	// families is the experiments.GtoPdbSystem fixture size for every
	// workload: large enough that long-tail's distinct-query space (three
	// shapes × families) dwarfs the server's 1024-entry result cache.
	families = 2000

	hotPoints      = 20   // hot-read: families looked up by each point shape (3 × 20 + 4 E10 = 64 queries)
	hotCitesPerSec = 4000 // hot-read: cites per client per --seconds
	// long-tail: cites per --seconds. Each miss grows the generator's
	// unbounded head caches by about 70 KB, so long-tail's op list stays
	// short of --seconds to keep a run near 400 MB of heap.
	longCitesPerSec  = 450
	mixRoundsPerSec  = 10  // write-mix: commit rounds per --seconds
	mixIngestsPerRnd = 10  // write-mix: ingests between two commits
	mixPointsPerRnd  = 2   // write-mix: Family point cites after each ingest's intro cite
	mixNewFamilyEach = 250 // write-mix: every this many ingests adds a family instead

	// Read workloads open their timed phase with a write phase — ingests
	// into Contributor, a relation none of their queries reads, with a
	// commit every writeIngestsPerCommit — so every workload reports the
	// ingest, commit and recovery metrics. It runs before the cites, on an
	// engine whose caches hold only the warm pass, and every cached
	// citation must survive its commits.
	writeIngestsPerSec    = 50
	writeIngestsPerCommit = 10

	// Sample floors: a p99 needs 1000 samples, a p90 needs 100.
	minP99Samples = 1000
	minP90Samples = 100

	// Family-id popularity: math/rand's Zipf, P(k) ∝ (zipfV+k)^-zipfS.
	// The offset flattens the head so that most long-tail cites miss the
	// result cache while a popular core still repeats.
	zipfS = 1.1
	zipfV = 50
)

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"hot-read", "long-tail", "write-mix"}

type opKind uint8

const (
	opCite opKind = iota
	opIngest
	opCommit
)

func (k opKind) String() string {
	return [...]string{"cite", "ingest", "commit"}[k]
}

// row is one tuple of an ingest batch, in wire order.
type row []any

// batch is one relation's part of an /ingest request.
type batch struct {
	Relation string `json:"relation"`
	Insert   []row  `json:"insert,omitempty"`
	Delete   []row  `json:"delete,omitempty"`
}

// op is one request of a workload.
type op struct {
	kind    opKind
	query   string  // cite: query text
	version int     // cite: ?version= (0 cites the head)
	batches []batch // ingest: the request's batches
	body    []byte  // request body as sent
}

// key identifies a distinct cite for correctness tracking.
func (o *op) key() string {
	if o.version == 0 {
		return o.query
	}
	return o.query + "@" + strconv.Itoa(o.version)
}

// plan is a workload's complete, seeded op list.
type plan struct {
	workload string
	seed     int64
	seconds  int
	families int
	warm     []op   // untimed warm pass, one stream
	writes   []op   // timed phase, first: one ordered write stream
	streams  [][]op // timed phase, then: one closed-loop client per stream, run concurrently
}

// counts tallies a plan's timed ops by kind.
func (p *plan) counts() map[string]int {
	c := map[string]int{}
	for _, s := range append([][]op{p.writes}, p.streams...) {
		for i := range s {
			c[s[i].kind.String()]++
		}
	}
	return c
}

// newPlan generates the op list of a workload from its seed.
func newPlan(workload string, seed int64, seconds int) (*plan, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	p := &plan{workload: workload, seed: seed, seconds: seconds, families: families}
	g := newGen(seed, families)
	switch workload {
	case "hot-read":
		p.genHotRead(g)
	case "long-tail":
		p.genLongTail(g)
	case "write-mix":
		p.genWriteMix(g)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return p, p.checkSampleFloors()
}

// checkSampleFloors refuses a plan whose reported percentiles would rest
// on too few samples.
func (p *plan) checkSampleFloors() error {
	c := p.counts()
	for kind, floor := range map[string]int{"cite": minP99Samples, "ingest": minP99Samples, "commit": minP90Samples} {
		if c[kind] < floor {
			return fmt.Errorf("%s: %d %s ops, below the %d its percentile needs", p.workload, c[kind], kind, floor)
		}
	}
	return nil
}

// structureSeed fixes every workload's access pattern: which op comes
// next, its query shape, the Zipf rank of its family, which past version
// a time-travel cite reads. --seed chooses which fixture family plays
// each rank (and hot-read's 20 point families), so every seed runs
// different inputs through the same cache behaviour — the same hit/miss
// sequence, the same reuse distances, the same invalidations. Without
// this, seed-to-seed changes in the hit/miss mix move a percentile that
// sits between two latency modes, which reads as noise.
const structureSeed = 20170514

// gen draws a workload's choices: rng (fixed) for structure, perm (from
// --seed) for family identities.
type gen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	perm     []int // Zipf rank → family id, so popularity is not id order
	families int
	intro    map[int]string // current FamilyIntro text of every updated family
	rev      int            // revision counter for intro rewrites
	newFams  int            // families added by Family inserts
	contribs int            // Contributor rows added by write phases
}

func newGen(seed int64, families int) *gen {
	perm := rand.New(rand.NewSource(seed)).Perm(families)
	for i := range perm {
		perm[i]++
	}
	rng := rand.New(rand.NewSource(structureSeed))
	return &gen{
		rng:      rng,
		zipf:     rand.NewZipf(rng, zipfS, zipfV, uint64(families-1)),
		perm:     perm,
		families: families,
		intro:    map[int]string{},
	}
}

// fid draws a Zipf-popular fixture family id.
func (g *gen) fid() int { return g.perm[g.zipf.Uint64()] }

// Point query shapes over one family id.
func pointQuery(fid int) string {
	return fmt.Sprintf("P(N, D) :- Family(%d, N, D)", fid)
}

func joinQuery(fid int) string {
	return fmt.Sprintf("J(N, T) :- Family(%d, N, D), FamilyIntro(%d, T)", fid, fid)
}

func introQuery(fid int) string {
	return fmt.Sprintf("I(T) :- FamilyIntro(%d, T)", fid)
}

var pointShapes = []func(int) string{pointQuery, joinQuery, introQuery}

func citeOp(query string, version int) op {
	body, err := json.Marshal(struct {
		Query string `json:"query"`
	}{query})
	if err != nil {
		panic(err) // a string always marshals
	}
	return op{kind: opCite, query: query, version: version, body: body}
}

func ingestOp(batches ...batch) op {
	body, err := json.Marshal(struct {
		Batches []batch `json:"batches"`
	}{batches})
	if err != nil {
		panic(err) // ints and strings always marshal
	}
	return op{kind: opIngest, batches: batches, body: body}
}

func commitOp(n int) op {
	return op{kind: opCommit, body: []byte(fmt.Sprintf(`{"message":"citeperf commit %d"}`, n))}
}

// genHotRead: two closed-loop clients cite 64 fixed queries — the four
// E10 full-table shapes plus three point shapes over 20 families — all of
// which fit the result cache; an untimed warm pass caches them first.
func (p *plan) genHotRead(g *gen) {
	queries := experiments.E10Workload()
	for _, fid := range g.perm[:hotPoints] {
		for _, shape := range pointShapes {
			queries = append(queries, shape(fid))
		}
	}
	for _, q := range queries {
		p.warm = append(p.warm, citeOp(q, 0))
	}
	n := hotCitesPerSec * p.seconds
	n = max(n, (minP99Samples+1)/2)
	for range 2 {
		s := make([]op, n)
		for i := range s {
			s[i] = citeOp(queries[g.rng.Intn(len(queries))], 0)
		}
		p.streams = append(p.streams, s)
	}
	p.writes = g.writePhase(p.seconds)
}

// genLongTail: one client cites point, join and intro shapes whose family
// constants are Zipf-drawn over the whole fixture; most distinct queries
// miss the result cache and run the full engine pipeline.
func (p *plan) genLongTail(g *gen) {
	n := max(longCitesPerSec*p.seconds, minP99Samples)
	s := make([]op, n)
	for i := range s {
		s[i] = citeOp(pointShapes[g.rng.Intn(len(pointShapes))](g.fid()), 0)
	}
	p.streams = [][]op{s}
	p.writes = g.writePhase(p.seconds)
}

// writePhase is the read workloads' write stream: ingests into
// Contributor with a commit after every writeIngestsPerCommit of them.
func (g *gen) writePhase(seconds int) []op {
	n := max(writeIngestsPerSec*seconds, minP99Samples)
	n = max(n, minP90Samples*writeIngestsPerCommit)
	var ops []op
	for i := 1; i <= n; i++ {
		g.contribs++
		tid := g.perm[g.rng.Intn(g.families)]
		ops = append(ops, ingestOp(batch{
			Relation: "Contributor",
			Insert:   []row{{tid, fmt.Sprintf("Bench Contributor %d", g.contribs)}},
		}))
		if i%writeIngestsPerCommit == 0 {
			ops = append(ops, commitOp(i/writeIngestsPerCommit))
		}
	}
	return ops
}

// genWriteMix: one ordered stream of rounds. Each round ingests
// mixIngestsPerRnd batches — FamilyIntro rewrites, with a new family every
// mixNewFamilyEach ingests — each followed by one cite that reads
// FamilyIntro (a join or intro query; half of them on the family just
// rewritten) and mixPointsPerRnd Family point cites, which the rewrites
// leave valid. Then it commits and cites one full-table query and one
// ?version= time-travel query. Point cites are the majority, so the cite
// median sits inside their latency mode rather than on the edge between
// it and the slower post-write mode.
func (p *plan) genWriteMix(g *gen) {
	rounds := max(mixRoundsPerSec*p.seconds, minP90Samples)
	rounds = max(rounds, (minP99Samples+mixIngestsPerRnd-1)/mixIngestsPerRnd)
	full := experiments.E10Workload()
	var s []op
	ingests := 0
	for r := 1; r <= rounds; r++ {
		for range mixIngestsPerRnd {
			ingests++
			written := g.fid()
			if ingests%mixNewFamilyEach == 0 {
				s = append(s, g.newFamily())
			} else {
				s = append(s, g.rewriteIntro(written))
			}
			fid := g.fid()
			if g.rng.Intn(2) == 0 {
				fid = written
			}
			s = append(s, citeOp(pointShapes[1+g.rng.Intn(2)](fid), 0))
			for range mixPointsPerRnd {
				s = append(s, citeOp(pointQuery(g.fid()), 0))
			}
		}
		s = append(s, commitOp(r))
		latest := r + 1 // the set-up commit is version 1
		s = append(s, citeOp(full[g.rng.Intn(len(full))], 0))
		q := pointQuery(g.fid())
		if g.rng.Intn(2) == 0 {
			q = full[g.rng.Intn(len(full))]
		}
		s = append(s, citeOp(q, 1+g.rng.Intn(latest)))
	}
	p.streams = [][]op{s}
}

// introText is a fixture family's current FamilyIntro text.
func (g *gen) introText(fid int) string {
	if t, ok := g.intro[fid]; ok {
		return t
	}
	return fmt.Sprintf("Introduction to family %d, curated overview.", fid)
}

// rewriteIntro replaces one family's introduction (delete old + insert new).
func (g *gen) rewriteIntro(fid int) op {
	old := g.introText(fid)
	g.rev++
	text := fmt.Sprintf("Revised introduction %d to family %d.", g.rev, fid)
	g.intro[fid] = text
	return ingestOp(batch{
		Relation: "FamilyIntro",
		Delete:   []row{{fid, old}},
		Insert:   []row{{fid, text}},
	})
}

// newFamily adds a family beyond the fixture, with its introduction.
func (g *gen) newFamily() op {
	g.newFams++
	fid := g.families + g.newFams
	name := fmt.Sprintf("Benchmark receptors %d", fid)
	text := fmt.Sprintf("Introduction to family %d, curated overview.", fid)
	g.intro[fid] = text
	return ingestOp(
		batch{Relation: "Family", Insert: []row{{fid, name, "Family " + strconv.Itoa(fid) + ": benchmark addition"}}},
		batch{Relation: "FamilyIntro", Insert: []row{{fid, text}}},
	)
}
