package storage

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

// refCanonical renders the canonical encoding straight from SortedTuples
// and Key, independently of the memo.
func refCanonical(r *Relation) string {
	var b strings.Builder
	for _, t := range r.SortedTuples() {
		b.WriteString(t.Key())
		b.WriteByte(0)
	}
	return b.String()
}

func TestTupleAppendKeyMatchesKey(t *testing.T) {
	tu := Tuple{value.Int(-3), value.String("a'b"), value.Float(2), value.Float(1e21)}
	want := "1-3\x1f0a'b\x1f22\x1f21e+21"
	if got := tu.Key(); got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got := string(tu.AppendKey([]byte("pre"))); got != "pre"+want {
		t.Errorf("AppendKey = %q, want %q", got, "pre"+want)
	}
}

func TestCanonicalMemo(t *testing.T) {
	r := NewRelation(pairSchema(t))
	if c := r.Canonical(); c == nil || len(c) != 0 {
		t.Fatalf("empty relation encodes as %q (nil=%v)", c, c == nil)
	}
	r.MustInsert(value.Int(2), value.String("b"))
	r.MustInsert(value.Int(1), value.String("z"))
	r.MustInsert(value.Int(1), value.String("a"))
	first := r.Canonical()
	if string(first) != refCanonical(r) {
		t.Fatalf("Canonical = %q, want %q", first, refCanonical(r))
	}
	if again := r.Canonical(); &again[0] != &first[0] {
		t.Error("unchanged relation re-rendered its encoding instead of serving the memo")
	}

	// A snapshot encodes the same bytes but keeps nothing; the head's
	// memo survives the snapshot (content-preserving) ...
	snap := r.Snapshot()
	if got := snap.Canonical(); string(got) != string(first) {
		t.Errorf("snapshot Canonical = %q, want %q", got, first)
	}
	if snap.canon != nil {
		t.Error("frozen snapshot retained its encoding")
	}
	if again := r.Canonical(); &again[0] != &first[0] {
		t.Error("snapshot dropped the head's memo")
	}

	// ... and a mutation drops it.
	r.Delete(Tuple{value.Int(1), value.String("z")})
	if got := r.Canonical(); string(got) != refCanonical(r) || string(got) == string(first) {
		t.Errorf("after delete Canonical = %q, want %q", got, refCanonical(r))
	}
	if got := snap.Canonical(); string(got) != string(first) {
		t.Errorf("snapshot changed after a head delete: %q", got)
	}
	if _, err := r.InsertBatch([]Tuple{tup(0, "x"), tup(9, "y")}); err != nil {
		t.Fatal(err)
	}
	if got := r.Canonical(); string(got) != refCanonical(r) {
		t.Errorf("after batch Canonical = %q, want %q", got, refCanonical(r))
	}
}

// TestCanonicalNeverStaleUnderWrites runs Canonical on a mutable relation
// concurrently with batch writes (run it under -race). Every encoding a
// reader gets must be exactly the encoding of some state the relation
// passed through, and that state must be no older than the generation
// the reader saw before calling: a memo filled before a mutation must
// never be served after it.
func TestCanonicalNeverStaleUnderWrites(t *testing.T) {
	const steps, size = 300, 4
	batch := func(k int) []Tuple {
		out := make([]Tuple, size)
		for i := range out {
			out[i] = tup(int64(k*size+i), "v")
		}
		return out
	}
	// A bulk base (generation 1) makes every fill slow enough for writes
	// to land while it runs. Then step k inserts batch k, except every
	// third step, which deletes the batch inserted two steps earlier.
	// Every step changes the contents, so step k leaves generation k+2.
	base := make([]Tuple, 2000)
	for i := range base {
		base[i] = tup(int64(-1-i), "base")
	}
	apply := func(r *Relation, k int) {
		var err error
		switch {
		case k < 0:
			_, err = r.InsertBatch(base)
		case k%3 == 2:
			_, err = r.DeleteBatch(batch(k - 2))
		default:
			_, err = r.InsertBatch(batch(k))
		}
		if err != nil {
			panic(err)
		}
	}
	gens := map[string][]uint64{} // encoding -> generations holding it
	ref := NewRelation(pairSchema(t))
	for k := -1; k < steps; k++ {
		apply(ref, k)
		if ref.Generation() != uint64(k+2) {
			t.Fatalf("step %d left generation %d", k, ref.Generation())
		}
		enc := refCanonical(ref)
		gens[enc] = append(gens[enc], uint64(k+2))
	}

	r := NewRelation(pairSchema(t))
	apply(r, -1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 2
	errs := make(chan string, readers) // each reader reports at most once
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g0 := r.Generation()
				enc := string(r.Canonical())
				held, ok := gens[enc]
				if !ok {
					errs <- "encoding of no state the relation passed through"
					return
				}
				if held[len(held)-1] < g0 {
					errs <- "stale encoding: older than the generation current at the call"
					return
				}
			}
		}()
	}
	for k := range steps {
		apply(r, k)
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := string(r.Canonical()); got != refCanonical(ref) {
		t.Fatalf("final encoding differs from reference")
	}
}
