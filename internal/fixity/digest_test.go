package fixity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// goldenDigest is DatabaseDigest(goldenDB()) as computed by the original
// sort-every-relation implementation. Commit log entries and checkpoints
// journal this digest and recovery re-checks it, so any change to the
// canonical encoding would make existing data directories unrecoverable.
const goldenDigest = "d33528cb4bd9c08b8d730cc48f8efa3b52821b031c9dccfae1b5abc7c609e6cf"

func goldenSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Measure", []schema.Attribute{
		{Name: "ID", Kind: value.KindInt},
		{Name: "Label", Kind: value.KindString},
		{Name: "Score", Kind: value.KindFloat},
		{Name: "At", Kind: value.KindTime},
	}, "ID"))
	s.MustAdd(schema.MustRelation("Tag", []schema.Attribute{
		{Name: "Name", Kind: value.KindString},
		{Name: "Weight", Kind: value.KindFloat},
	}))
	s.MustAdd(schema.MustRelation("Empty", []schema.Attribute{
		{Name: "X", Kind: value.KindInt},
	}))
	return s
}

// goldenDB holds every value kind, including floats whose rendering is
// easy to get subtly wrong (-0.0, 1e21, 1e-7, integral 2.0), times before
// the epoch and with nanoseconds and offsets, strings with quotes, the
// key separator byte and non-ASCII text, a deletion hole, and an empty
// relation. Tuples are inserted out of canonical order.
func goldenDB() *storage.Database {
	db := storage.NewDatabase(goldenSchema())
	ts := func(s string) value.Value {
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			panic(err)
		}
		return value.Time(t)
	}
	rows := []storage.Tuple{
		{value.Int(3), value.String("ünïcode\x1fsep"), value.Float(1e21), value.Time(time.Unix(0, 0))},
		{value.Int(1), value.String("alpha"), value.Float(0.5), ts("2020-01-02T03:04:05.123456789Z")},
		{value.Int(2), value.String("it's"), value.Float(math.Copysign(0, -1)), ts("1969-12-31T23:59:59Z")},
		{value.Int(-7), value.String(""), value.Float(2.0), ts("2024-02-29T12:00:00+05:00")},
		{value.Int(8), value.String("gone"), value.Float(1), ts("2001-01-01T00:00:00Z")},
		{value.Int(4), value.String("alpha"), value.Float(1e-7), ts("1900-06-15T08:30:00.5Z")},
		{value.Int(math.MaxInt64), value.String("max"), value.Float(-1.5e300), ts("2262-04-11T23:47:16Z")},
		{value.Int(5), value.String("zero"), value.Float(0), ts("2000-02-29T00:00:00Z")},
		{value.Int(math.MinInt64), value.String("min"), value.Float(123456789.125), ts("1970-01-01T00:00:00.000000001Z")},
	}
	for _, r := range rows {
		if err := db.Insert("Measure", r...); err != nil {
			panic(err)
		}
	}
	if _, err := db.Delete("Measure", rows[4]...); err != nil {
		panic(err)
	}
	for _, r := range []storage.Tuple{
		{value.String("b"), value.Float(3.25)},
		{value.String("a"), value.Float(math.Copysign(0, -1))},
		{value.String("B"), value.Float(100)},
		{value.String("a"), value.Float(1e21)},
	} {
		if err := db.Insert("Tag", r...); err != nil {
			panic(err)
		}
	}
	return db
}

// referenceDigest is the original DatabaseDigest: sort every relation,
// render every tuple with Key, hash. The memoized implementation must
// agree with it on every state.
func referenceDigest(db *storage.Database) string {
	h := sha256.New()
	for _, name := range db.Schema().Names() {
		h.Write([]byte(name))
		h.Write([]byte{0xff})
		for _, t := range db.Relation(name).SortedTuples() {
			h.Write([]byte(t.Key()))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDatabaseDigestGolden(t *testing.T) {
	db := goldenDB()
	if got := DatabaseDigest(db); got != goldenDigest {
		t.Errorf("head digest = %s, want %s", got, goldenDigest)
	}
	// Twice: the second call is served from the per-relation memo.
	if got := DatabaseDigest(db); got != goldenDigest {
		t.Errorf("memoized head digest = %s, want %s", got, goldenDigest)
	}
	if got := DatabaseDigest(db.Snapshot()); got != goldenDigest {
		t.Errorf("snapshot digest = %s, want %s", got, goldenDigest)
	}
	if got := referenceDigest(db); got != goldenDigest {
		t.Errorf("reference digest = %s, want %s", got, goldenDigest)
	}
}

// TestDatabaseDigestMatchesReference drives random mutation sequences —
// single and batch inserts and deletes, snapshots and compaction — and
// checks after every step that the memoized digest of the head equals the
// reference digest, and that every snapshot taken so far still digests as
// it did when it was taken.
func TestDatabaseDigestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := storage.NewDatabase(goldenSchema())
			tag := func() storage.Tuple {
				return storage.Tuple{
					value.String(fmt.Sprintf("t%d", rng.Intn(40))),
					value.Float(float64(rng.Intn(20)) / 4),
				}
			}
			measure := func() storage.Tuple {
				id := int64(rng.Intn(60))
				return storage.Tuple{
					value.Int(id),
					value.String(fmt.Sprintf("m%d", id%7)),
					value.Float(float64(id) * 1e20),
					value.Time(time.Unix(id*86400, id)),
				}
			}
			gen := func() (string, storage.Tuple) {
				if rng.Intn(2) == 0 {
					return "Tag", tag()
				}
				return "Measure", measure()
			}
			type pinned struct {
				db     *storage.Database
				digest string
			}
			var snaps []pinned
			for step := 0; step < 300; step++ {
				name, tup := gen()
				r := db.Relation(name)
				switch op := rng.Intn(10); {
				case op < 3:
					if _, err := r.Insert(tup); err != nil {
						t.Fatal(err)
					}
				case op < 5:
					r.Delete(tup)
				case op < 7:
					batch := []storage.Tuple{tup}
					for range rng.Intn(6) {
						_, u := gen()
						if len(u) == len(tup) {
							batch = append(batch, u)
						}
					}
					if rng.Intn(3) == 0 {
						if _, err := r.DeleteBatch(batch); err != nil {
							t.Fatal(err)
						}
					} else if _, err := r.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					s := db.Snapshot()
					snaps = append(snaps, pinned{s, referenceDigest(s)})
				default:
					r.Compact()
				}
				if got, want := DatabaseDigest(db), referenceDigest(db); got != want {
					t.Fatalf("step %d: head digest %s, reference %s", step, got, want)
				}
			}
			for i, p := range snaps {
				if got := DatabaseDigest(p.db); got != p.digest {
					t.Fatalf("snapshot %d: digest %s, taken as %s", i, got, p.digest)
				}
			}
		})
	}
}
