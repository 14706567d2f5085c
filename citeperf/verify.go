package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fixity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

// fingerprint digests what a citation must reproduce: the record's
// compact JSON bytes, the text and the pin's content digest (the server
// indents its replies, so the raw record carries layout whitespace). A
// head cite's text drops its pin
// suffix, because a cached head entry that survived a commit keeps the pin
// version (and retrieval time) it was computed at while its content is
// unchanged; a ?version= cite keeps the full text.
func fingerprint(r *wireResult, versioned bool) [32]byte {
	h := sha256.New()
	var rec bytes.Buffer
	if err := json.Compact(&rec, r.Record); err != nil {
		rec.Reset()
		rec.Write(r.Record) // not JSON: hash as is, so it can only mismatch
	}
	h.Write(rec.Bytes())
	h.Write([]byte{0})
	text := r.Text
	if r.Pin != nil && !versioned {
		if i := strings.LastIndex(text, " [query="); i >= 0 {
			text = text[:i]
		}
	}
	h.Write([]byte(text))
	if r.Pin != nil {
		fmt.Fprintf(h, "\x00%s\x00%d\x00%s", r.Pin.SHA256, r.Pin.Tuples, r.Pin.Query)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// served is the last envelope the server returned for one distinct cite.
type served struct {
	op    *op
	fp    [32]byte
	seq   int
	reads []string
}

// tracker follows a replay's replies in stream order. A cite served again
// with no write in between to a relation its envelope reads must produce
// the same fingerprint — so a cache hit must equal the computation it
// replaced, before and after commits that did not touch it.
type tracker struct {
	mu        sync.Mutex
	seq       int
	lastWrite map[string]int
	seen      map[string]*served
	problems  []string
}

func newTracker() *tracker {
	return &tracker{lastWrite: map[string]int{}, seen: map[string]*served{}}
}

func (t *tracker) fail(format string, args ...any) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tracker) write(o *op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	for _, b := range o.batches {
		t.lastWrite[b.Relation] = t.seq
	}
}

func (t *tracker) cite(o *op, r *wireResult) {
	fp := fingerprint(r, o.version > 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if r.Error != "" {
		t.fail("%s: error %q", o.key(), r.Error)
		return
	}
	if o.version > 0 && (r.Pin == nil || r.Pin.Version != o.version) {
		t.fail("%s: pin does not name the requested version", o.key())
	}
	k := o.key()
	if prev, ok := t.seen[k]; ok && prev.fp != fp && t.unchangedSince(prev) {
		t.fail("%s: reply changed at op %d although nothing it reads was written since op %d", k, t.seq, prev.seq)
	}
	t.seen[k] = &served{op: o, fp: fp, seq: t.seq, reads: r.Reads}
}

// unchangedSince reports whether no relation the envelope reads was
// written after it was served. Versioned cites read an immutable snapshot.
func (t *tracker) unchangedSince(s *served) bool {
	if s.op.version > 0 {
		return true
	}
	for _, rel := range s.reads {
		if t.lastWrite[rel] > s.seq {
			return false
		}
	}
	return true
}

// keys lists the distinct cites seen, in a fixed order.
func (t *tracker) keys() []string {
	ks := make([]string, 0, len(t.seen))
	for k := range t.seen {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// verifyPass cites every distinct query once more through the server,
// after the timed phase; these are the last envelopes served, checked by
// the tracker against every earlier reply they must equal.
func verifyPass(c *client, t *tracker) *phaseResult {
	keys := t.keys()
	ops := make([]op, len(keys))
	for i, k := range keys {
		ops[i] = *t.seen[k].op
	}
	return replay(c, ops, t, nil, 0, 0)
}

// checkRecompute compares the last served envelope of every distinct cite
// with a cold recompute on sys, a fresh System holding the same data.
func checkRecompute(sys *core.System, t *tracker) {
	ctx := context.Background()
	for _, k := range t.keys() {
		s := t.seen[k]
		var opts []core.CiteOption
		if s.op.version > 0 {
			opts = append(opts, core.AtVersion(fixity.Version(s.op.version)))
		}
		c, err := sys.CiteContext(ctx, s.op.query, opts...)
		if err != nil {
			t.fail("%s: recompute: %v", k, err)
			continue
		}
		r, err := wireOf(s.op.query, c)
		if err != nil {
			t.fail("%s: %v", k, err)
			continue
		}
		if fingerprint(r, s.op.version > 0) != s.fp {
			t.fail("%s: served envelope differs from a cold recompute", k)
		}
	}
}

// wireOf renders an engine citation exactly as the server does and reads
// it back in the benchmark's wire form.
func wireOf(query string, c *core.Citation) (*wireResult, error) {
	raw, err := json.Marshal(server.NewCiteResult(query, c))
	if err != nil {
		return nil, fmt.Errorf("encode recompute: %w", err)
	}
	var r wireResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decode recompute: %w", err)
	}
	return &r, nil
}

// checkRecovered compares a recovered system's latest version and head
// digest with the live system's.
func checkRecovered(t *tracker, rec *core.System, latest fixity.Version, digest string) {
	if got := rec.Store().Latest(); got != latest {
		t.fail("recovered latest version %d, live head had %d", got, latest)
	}
	if got := fixity.DatabaseDigest(rec.Database()); got != digest {
		t.fail("recovered head digest %s, live head had %s", got, digest)
	}
}

// rebuild makes a fresh in-memory System from the seed: the fixture, the
// plan's ingests applied in order, and one commit, so head cites pin the
// same data the served ones did.
func rebuild(p *plan) (*core.System, error) {
	sys, err := newSystemInMemory()
	if err != nil {
		return nil, err
	}
	for _, s := range append([][]op{p.warm, p.writes}, p.streams...) {
		for i := range s {
			if s[i].kind == opIngest {
				if err := applyIngest(sys, &s[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	if _, _, err := sys.CommitVersioned("citeperf rebuild"); err != nil {
		return nil, err
	}
	return sys, nil
}

// applyIngest applies an ingest op through the journaled mutation API,
// deletions before insertions per batch, as the server does.
func applyIngest(sys *core.System, o *op) error {
	for _, b := range o.batches {
		if len(b.Delete) > 0 {
			if _, err := sys.Delete(b.Relation, tuples(b.Delete)); err != nil {
				return fmt.Errorf("delete from %s: %w", b.Relation, err)
			}
		}
		if len(b.Insert) > 0 {
			if _, err := sys.Insert(b.Relation, tuples(b.Insert)); err != nil {
				return fmt.Errorf("insert into %s: %w", b.Relation, err)
			}
		}
	}
	return nil
}

func tuples(rows []row) []storage.Tuple {
	out := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		t := make(storage.Tuple, len(r))
		for j, v := range r {
			switch v := v.(type) {
			case int:
				t[j] = value.Int(int64(v))
			case string:
				t[j] = value.String(v)
			default:
				panic(fmt.Sprintf("citeperf: unsupported row value %T", v)) // generator bug
			}
		}
		out[i] = t
	}
	return out
}
