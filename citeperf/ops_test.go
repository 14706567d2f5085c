package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// encode renders the plan canonically; equal plans encode byte-identically.
func (p *plan) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s seed=%d seconds=%d families=%d\n", p.workload, p.seed, p.seconds, p.families)
	section := func(name string, ops []op) {
		fmt.Fprintf(&b, "[%s %d]\n", name, len(ops))
		for i := range ops {
			fmt.Fprintf(&b, "%s v=%d %s\n", ops[i].kind, ops[i].version, ops[i].body)
		}
	}
	section("warm", p.warm)
	section("writes", p.writes)
	for i, s := range p.streams {
		section(fmt.Sprintf("stream%d", i), s)
	}
	return b.Bytes()
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 7 gave two different op lists", w)
		}
		c, err := newPlan(w, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
	}
}

func TestPlanMeetsSampleFloors(t *testing.T) {
	for _, w := range workloadNames {
		p, err := newPlan(w, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c := p.counts()
		if c["cite"] < minP99Samples || c["ingest"] < minP99Samples || c["commit"] < minP90Samples {
			t.Errorf("%s: op counts %v below the percentile floors", w, c)
		}
	}
}

// TestLongTailMissesRepeat replays the same single-stream long-tail op
// list on two fresh servers: with one ordered stream, the result cache's
// miss count must not depend on timing.
func TestLongTailMissesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two servers over the full fixture")
	}
	p, err := newPlan("long-tail", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.streams[0][:600]
	var misses [2]int64
	for i := range misses {
		in, _, err := startInstance(filepath.Join(t.TempDir(), "data"), 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracker()
		res := replay(in.client, ops, tr, nil, 0, 0)
		misses[i] = in.srv.CacheStats().Misses
		if err := in.stop(); err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || len(tr.problems) != 0 {
			t.Fatalf("run %d: %d failed ops, problems %v, errors %v", i, res.failed, tr.problems, res.errs)
		}
	}
	if misses[0] != misses[1] {
		t.Fatalf("miss counts differ between identical runs: %d vs %d", misses[0], misses[1])
	}
	if misses[0] == 0 || misses[0] == int64(len(ops)) {
		t.Fatalf("miss count %d of %d: the op list should both hit and miss", misses[0], len(ops))
	}
}
