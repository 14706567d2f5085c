package datacitation

// Durability benchmarks: the journaled ingest path (BenchmarkIngest), the
// durable commit (BenchmarkCommit) and boot recovery of a directory with
// a committed history (BenchmarkRecovery). All run in the CI bench smoke
// next to the E-suite and land in BENCH_eval.json.

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func benchSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Event", []schema.Attribute{
		{Name: "ID", Kind: value.KindInt},
		{Name: "Name", Kind: value.KindString},
		{Name: "Score", Kind: value.KindFloat},
	}, "ID"))
	return s
}

func benchBatch(start, n int) []storage.Tuple {
	out := make([]storage.Tuple, n)
	for i := range out {
		id := start + i
		out[i] = storage.Tuple{
			value.Int(int64(id)),
			value.String(fmt.Sprintf("event-%d", id)),
			value.Float(float64(id) * 0.5),
		}
	}
	return out
}

// BenchmarkIngest measures the journaled batch-insert path (validate,
// append to the write-ahead log, apply to storage) at 100 tuples per
// batch, per fsync policy.
func BenchmarkIngest(b *testing.B) {
	const batch = 100
	for _, mode := range []durable.FsyncPolicy{durable.FsyncOnCommit, durable.FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			sys := core.NewSystem(benchSchema())
			dir := filepath.Join(b.TempDir(), "data")
			if err := sys.EnableDurability(dir, core.DurableOptions{Fsync: mode}); err != nil {
				b.Fatal(err)
			}
			defer sys.CloseDurability()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Insert("Event", benchBatch(i*batch, batch)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch), "tuples/op")
		})
	}
}

// BenchmarkRecovery measures Open on a directory holding 10 committed
// versions of 200-tuple churn plus an uncheckpointed log tail — the
// crash-restart path citeserved -open takes at boot.
func BenchmarkRecovery(b *testing.B) {
	sys := core.NewSystem(benchSchema())
	dir := filepath.Join(b.TempDir(), "data")
	if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
		b.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		if _, err := sys.Insert("Event", benchBatch(v*200, 200)); err != nil {
			b.Fatal(err)
		}
		sys.Commit(fmt.Sprintf("version %d", v+1))
	}
	if err := sys.CloseDurability(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := core.Open(dir, core.DurableOptions{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if re.Store().Latest() != 10 {
			b.Fatalf("recovered %d versions", re.Store().Latest())
		}
	}
}

// BenchmarkCommit measures the durable commit path on the 2000-family
// GtoPdb fixture: each op journals 10 FamilyIntro rewrites (delete the old
// introduction, insert a new one) and then commits. The commit digests
// the whole database, so this is where the cost of the canonical encoding
// shows; only FamilyIntro changes between commits.
func BenchmarkCommit(b *testing.B) {
	const rewrites = 10
	sys, err := experiments.GtoPdbSystem(2000)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "data")
	if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
		b.Fatal(err)
	}
	defer sys.CloseDurability()
	if _, _, err := sys.CommitVersioned("initial load"); err != nil {
		b.Fatal(err)
	}
	intro := sys.Database().Relation("FamilyIntro").SortedTuples()
	rev := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range rewrites {
			k := rev % len(intro)
			rev++
			next := storage.Tuple{intro[k][0], value.String(fmt.Sprintf("Revised introduction %d.", rev))}
			if _, err := sys.Delete("FamilyIntro", []storage.Tuple{intro[k]}); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Insert("FamilyIntro", []storage.Tuple{next}); err != nil {
				b.Fatal(err)
			}
			intro[k] = next
		}
		if _, _, err := sys.CommitVersioned(fmt.Sprintf("commit %d", i)); err != nil {
			b.Fatal(err)
		}
	}
}
