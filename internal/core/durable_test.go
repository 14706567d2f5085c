package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/storage"
	"repro/internal/value"
)

func famTuple(id int64, name, desc string) storage.Tuple {
	return storage.Tuple{value.Int(id), value.String(name), value.String(desc)}
}

// durableSystem enables durability on the paper fixture in a fresh dir.
func durableSystem(t *testing.T, opts DurableOptions) (*System, string) {
	t.Helper()
	sys := paperSystem(t)
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, opts); err != nil {
		t.Fatal(err)
	}
	return sys, dir
}

// historiesEqual compares version histories field by field (timestamps
// via Equal: a recovered time.Time is the same instant but may not be
// bit-identical to one fresh from time.Now).
func historiesEqual(a, b []fixity.VersionInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || a[i].Message != b[i].Message ||
			a[i].Tuples != b[i].Tuples || !a[i].Timestamp.Equal(b[i].Timestamp) {
			return false
		}
	}
	return true
}

// buildDurableHistory journals a small mixed workload: three commits with
// inserts, a delete, a policy change and an extra view in between.
func buildDurableHistory(t *testing.T, sys *System) {
	t.Helper()
	mustN := func(n int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("mutation was a no-op")
		}
	}
	sys.Commit("v1")
	mustN(sys.Insert("Family", []storage.Tuple{
		famTuple(13, "Amylin", "A1"),
		famTuple(14, "Ghrelin", "G1"),
	}))
	mustN(sys.Insert("Committee", []storage.Tuple{{value.Int(13), value.String("Dave")}}))
	sys.Commit("v2")
	mustN(sys.Delete("Family", []storage.Tuple{famTuple(14, "Ghrelin", "G1")}))
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineView(
		"lambda FID. V9(FID, PName) :- Committee(FID, PName)", nil,
		CitationSpec{Query: "lambda FID. CV9(FID, PName) :- Committee(FID, PName)",
			Fields: []string{"", "author"}},
	); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v3")
}

// TestDurableReopenByteIdentical is the end-to-end fixity proof: commit,
// pin a citation, "crash" (drop the system without checkpoint or clean
// close), reopen the directory, and require the identical version
// history and a byte-identical re-derivation of the pinned citation.
func TestDurableReopenByteIdentical(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys)

	const q = "Q(FName) :- Family(FID, FName, Desc)"
	ctx := context.Background()
	orig, err := sys.CiteContext(ctx, q, AtVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	origText := orig.Text()
	origJSON, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	origHist := sys.Store().History()
	if len(origHist) != 3 {
		t.Fatalf("history has %d versions, want 3", len(origHist))
	}
	// Crash: abandon the System without a checkpoint. Closing the log
	// releases the writer flock so this process can reopen the directory
	// — a faithful in-process kill -9: appends are unbuffered (already in
	// the page cache), so the only thing a real crash additionally skips
	// is the final fsync, whose loss behavior the crash-point test covers
	// byte by byte. The CI smoke job exercises the real kill -9 across
	// processes.
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	if got := re.Store().History(); !historiesEqual(origHist, got) {
		t.Fatalf("recovered history differs:\n orig: %+v\n got: %+v", origHist, got)
	}
	if stats, ok := re.Durability(); !ok || stats.RecoveredVersion != 3 || !stats.Enabled {
		t.Fatalf("durability stats after recovery: %+v (ok=%v)", stats, ok)
	}

	got, err := re.CiteContext(ctx, q, AtVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotText := got.Text(); gotText != origText {
		t.Fatalf("recovered citation text differs:\n orig: %s\n got: %s", origText, gotText)
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != origJSON {
		t.Fatalf("recovered citation JSON differs:\n orig: %s\n got: %s", origJSON, gotJSON)
	}

	// The pin handed out before the crash verifies against the recovered
	// store — the fixity guarantee across restarts.
	if orig.Pin == nil {
		t.Fatal("original citation carries no pin")
	}
	ok, err := re.Store().Verify(*orig.Pin)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pre-crash pin does not verify against the recovered store")
	}

	// The recovered system keeps journaling: another commit survives a
	// second reopen.
	if _, err := re.Insert("Family", []storage.Tuple{famTuple(15, "Motilin", "M1")}); err != nil {
		t.Fatal(err)
	}
	re.Commit("v4")
	if err := re.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re2.Store().Latest() != 4 {
		t.Fatalf("second recovery: latest = %d, want 4", re2.Store().Latest())
	}
	if db, _ := re2.Store().At(4); !db.Relation("Family").Contains(famTuple(15, "Motilin", "M1")) {
		t.Fatal("post-recovery insert lost")
	}
}

// TestDurableCrashPointReplay is the crash-point equivalence proof: the
// log tail is truncated at every byte boundary, and every truncation
// must recover to a clean prefix of the original commit history (Open
// verifies each rebuilt version's digest internally; a mangled state
// cannot pass it).
func TestDurableCrashPointReplay(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys)
	refHist := sys.Store().History()
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (err %v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	others, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}

	scratch := t.TempDir()
	prevVersions := -1
	for cut := 0; cut <= len(full); cut++ {
		cdir := filepath.Join(scratch, "d")
		if err := os.RemoveAll(cdir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range others {
			if p == segs[0] {
				continue
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := Open(cdir, DurableOptions{ReadOnly: true})
		if err != nil {
			// A torn single-segment tail must always recover; only true
			// corruption may refuse, and truncation cannot manufacture it.
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := re.Store().History()
		if len(got) > len(refHist) || !historiesEqual(refHist[:len(got)], got) {
			t.Fatalf("cut %d: recovered history is not a prefix (%d versions)", cut, len(got))
		}
		if len(got) < prevVersions {
			t.Fatalf("cut %d: commit prefix shrank from %d to %d versions", cut, prevVersions, len(got))
		}
		prevVersions = len(got)
	}
	if prevVersions != len(refHist) {
		t.Fatalf("full log recovered only %d of %d versions", prevVersions, len(refHist))
	}
}

// TestDurableCorruptionRefused flips a byte in the middle of the log:
// recovery must refuse with ErrCorrupt rather than serve a mangled
// state. (The flipped record is followed by valid entries on a later
// segment, so the prefix interpretation is unavailable.)
func TestDurableCorruptionRefused(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{SegmentBytes: 64})
	buildDurableHistory(t, sys)
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DurableOptions{ReadOnly: true}); err == nil {
		t.Fatal("recovery accepted a corrupted mid-log record")
	}
}

// TestDurableCheckpointTruncatesAndRecovers exercises automatic
// checkpointing: the log truncates, old checkpoints are garbage
// collected, and recovery over checkpoint+tail rebuilds the identical
// history.
func TestDurableCheckpointTruncatesAndRecovers(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{CheckpointEvery: 2})
	sys.Commit("v1")
	for i := int64(0); i < 4; i++ {
		if _, err := sys.Insert("Family", []storage.Tuple{famTuple(20+i, "F", "D")}); err != nil {
			t.Fatal(err)
		}
		sys.Commit("vN")
	}
	if _, err := sys.Delete("Family", []storage.Tuple{famTuple(20, "F", "D")}); err != nil {
		t.Fatal(err)
	}
	stats, ok := sys.Durability()
	if !ok || stats.Checkpoints < 2 {
		t.Fatalf("expected >= 2 automatic checkpoints, stats %+v", stats)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dcx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 {
		t.Fatalf("old checkpoints not collected: %v", ckpts)
	}
	refHist := sys.Store().History()
	refHead := fixity.DatabaseDigest(sys.Database())
	// Crash without close.

	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Store().History(); !historiesEqual(refHist, got) {
		t.Fatalf("checkpointed recovery history differs:\n orig: %+v\n got: %+v", refHist, got)
	}
	if got := fixity.DatabaseDigest(re.Database()); got != refHead {
		t.Fatalf("recovered head digest %s, want %s", got, refHead)
	}
}

// TestDurableConfigSurvives proves policy and view changes journal: the
// recovered system serves the same citation for a query that needs the
// post-enable view and the post-enable policy.
func TestDurableConfigSurvives(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys) // sets maxcoverage + defines V9
	const q = "Q(PName) :- Committee(FID, PName)"
	orig, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Registry().Len() != sys.Registry().Len() {
		t.Fatalf("recovered %d views, want %d", re.Registry().Len(), sys.Registry().Len())
	}
	got, err := re.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != orig.Text() {
		t.Fatalf("recovered default-policy citation differs:\n orig: %s\n got: %s", orig.Text(), got.Text())
	}
}

// TestDurableReadOnly: a read-only recovery rejects journaled mutations
// and leaves the directory untouched.
func TestDurableReadOnly(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	sys.Commit("v1")
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Insert("Family", []storage.Tuple{famTuple(99, "X", "Y")}); err == nil {
		t.Fatal("read-only system accepted Insert")
	}
	if _, _, err := re.CommitVersioned("nope"); err == nil {
		t.Fatal("read-only system accepted Commit")
	}
	if err := re.SetPolicyNamed("all"); err == nil {
		t.Fatal("read-only system accepted SetPolicyNamed")
	}
	if err := re.DefineView("V8(A) :- Committee(A, B)", nil); err == nil {
		t.Fatal("read-only system accepted DefineView")
	}
	after, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("read-only open changed the directory: %v -> %v", before, after)
	}
	// Reads still work.
	if _, err := re.Cite("Q(FName) :- Family(FID, FName, Desc)"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInitErrors: directory state machine edges.
func TestDurableInitErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), DurableOptions{}); err == nil {
		t.Fatal("Open on a missing directory succeeded")
	}
	sys, dir := durableSystem(t, DurableOptions{})
	if err := sys.EnableDurability(dir, DurableOptions{}); err == nil {
		t.Fatal("double EnableDurability succeeded")
	}
	other := paperSystem(t)
	if err := other.EnableDurability(dir, DurableOptions{}); err == nil {
		t.Fatal("EnableDurability on an initialized directory succeeded")
	}
	if err := other.EnableDurability(t.TempDir(), DurableOptions{ReadOnly: true}); err == nil {
		t.Fatal("EnableDurability accepted ReadOnly")
	}
	if !durable.Initialized(dir) {
		t.Fatal("initialized dir not detected")
	}
}

// TestDurableRefusesUnjournaledCommit: a direct Database() mutation
// bypasses the log; sealing it would brick recovery (replay rebuilds
// different contents and fails the digest check), so the commit must be
// refused loudly at commit time instead.
func TestDurableRefusesUnjournaledCommit(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	sys.Commit("v1")
	if err := sys.Database().Insert("Family", value.Int(66), value.String("Rogue"), value.String("R")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.CommitVersioned("v2"); err == nil {
		t.Fatal("commit of un-journaled head mutations accepted")
	}
	// The journaled path still works after reconciling through it.
	if _, err := sys.Insert("Family", []storage.Tuple{famTuple(67, "Proper", "P")}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// The directory stayed recoverable: version 1 only, rogue tuple
	// absent from history (it was never journaled).
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Store().Latest() != 1 {
		t.Fatalf("recovered latest = %d, want 1", re.Store().Latest())
	}
}

// TestDurableCheckpointReusesDigests checks that the digests recorded at
// commit and restore are the ones checkpoints journal: versions committed
// before EnableDurability are digested once, by the enabling checkpoint;
// every later version keeps its commit-time digest; and a checkpoint
// round-trips through Open with the same digest for every version, each
// equal to a fresh digest of that version's snapshot.
func TestDurableCheckpointReusesDigests(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("in-memory v1")
	if len(sys.digests) != 0 {
		t.Fatalf("in-memory commit recorded digests %q", sys.digests)
	}
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(sys.digests) != 1 || sys.digests[0] == "" {
		t.Fatalf("enabling checkpoint left digests %q, want one for v1", sys.digests)
	}
	const n = 6
	for i := int64(0); i < n; i++ {
		if _, err := sys.Insert("Family", []storage.Tuple{famTuple(30+i, "F", "D")}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := sys.Delete("Family", []storage.Tuple{famTuple(29+i, "F", "D")}); err != nil {
				t.Fatal(err)
			}
		}
		sys.Commit("durable")
		if i == n/2 {
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), sys.digests...)
	if len(want) != n+1 {
		t.Fatalf("%d digests for %d versions", len(want), n+1)
	}
	for v := fixity.Version(1); v <= sys.Store().Latest(); v++ {
		db, err := sys.Store().At(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := fixity.DatabaseDigest(db); got != want[v-1] {
			t.Fatalf("version %d: recorded digest %s, snapshot digests %s", v, want[v-1], got)
		}
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := durable.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt.Versions) != len(want) {
		t.Fatalf("checkpoint holds %d versions, want %d", len(ckpt.Versions), len(want))
	}
	for i, vs := range ckpt.Versions {
		if vs.Meta.Digest != want[i] {
			t.Fatalf("checkpoint version %d digest %s, want %s", i+1, vs.Meta.Digest, want[i])
		}
	}
	for round := 0; round < 2; round++ {
		re, err := Open(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(re.digests) != len(want) {
			t.Fatalf("round %d: recovered %d digests, want %d", round, len(re.digests), len(want))
		}
		for i := range want {
			if re.digests[i] != want[i] {
				t.Fatalf("round %d: version %d digest %s, want %s", round, i+1, re.digests[i], want[i])
			}
		}
		// Re-checkpoint the recovered system: the next round recovers
		// purely from a checkpoint built out of restored digests.
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := re.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
}
