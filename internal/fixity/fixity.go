// Package fixity implements the paper's §3 "fixity" principle: "data may
// evolve over time, and a citation should bring back the data as seen at
// the time it was cited". It provides a versioned database — immutable
// snapshots created by commit — plus pinned citations that embed the
// version number, the query, and a SHA-256 digest of the result so a
// re-execution can be verified byte-for-byte.
//
// The design follows the reference-implementation sketch the paper cites
// (Pröll & Rauber, IEEE BigData 2013): version-stamped data, query
// re-execution against the stamped version, and result hashing.
package fixity

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/storage"
)

// ErrUnknownVersion is returned when a version number names no committed
// snapshot — too large, zero, negative, or from before the first commit.
// Callers classify it with errors.Is; the serving layer maps it to 404.
var ErrUnknownVersion = errors.New("fixity: unknown version")

// Version identifies an immutable snapshot. Versions start at 1 and
// increase by one per commit.
type Version int

// VersionInfo records commit metadata for one version.
type VersionInfo struct {
	Version   Version
	Timestamp time.Time
	Message   string
	Tuples    int // total live tuples at commit time
}

// Store is a versioned database: a mutable head plus immutable committed
// snapshots. It is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	schema   *schema.Schema
	head     *storage.Database
	versions []*storage.Database // versions[i] is Version(i+1)
	infos    []VersionInfo
	clock    func() time.Time
}

// NewStore creates a versioned store with an empty head.
func NewStore(s *schema.Schema) *Store {
	return &Store{schema: s, head: storage.NewDatabase(s), clock: time.Now}
}

// SetClock overrides the commit timestamp source (tests).
func (st *Store) SetClock(clock func() time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.clock = clock
}

// Head returns the mutable working database.
func (st *Store) Head() *storage.Database {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.head
}

// Commit snapshots the head as a new immutable version and returns it.
// Snapshots are copy-on-write (storage.Database.Snapshot): the snapshot
// itself costs O(relations), and any number of Cite calls can read a
// committed version concurrently without locking. Durable commits
// (core.System with an attached log) go through RestoreCommit instead and
// also digest the head before journaling it; that digest, not the
// snapshot, dominates their cost.
func (st *Store) Commit(message string) VersionInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := st.head.Snapshot()
	st.versions = append(st.versions, snap)
	info := VersionInfo{
		Version:   Version(len(st.versions)),
		Timestamp: st.clock(),
		Message:   message,
		Tuples:    snap.Size(),
	}
	st.infos = append(st.infos, info)
	return info
}

// RestoreCommit appends the current head snapshot as the next version
// with caller-supplied metadata instead of freshly generated metadata —
// the durable layer's commit primitive. The write-ahead log (and its
// checkpoints) record each commit's version number, timestamp, message
// and tuple count; restoring through this method reproduces the exact
// VersionInfo the original process observed, so a recovered store's pins
// render byte-identically to the ones handed out before the crash.
//
// info.Version must be exactly Latest()+1 and info.Tuples must match the
// head's live tuple count; violations report an error and change nothing,
// which is how recovery surfaces a log that diverged from the state it
// claims to describe.
func (st *Store) RestoreCommit(info VersionInfo) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if want := Version(len(st.versions) + 1); info.Version != want {
		return fmt.Errorf("fixity: restore of version %d out of order (next is %d)", info.Version, want)
	}
	snap := st.head.Snapshot()
	if n := snap.Size(); info.Tuples != n {
		return fmt.Errorf("fixity: restored version %d records %d tuples, head has %d",
			info.Version, info.Tuples, n)
	}
	st.versions = append(st.versions, snap)
	st.infos = append(st.infos, info)
	return nil
}

// Latest returns the most recent committed version, or 0 if none.
func (st *Store) Latest() Version {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Version(len(st.versions))
}

// At returns the immutable database at the given version. A version that
// was never committed reports ErrUnknownVersion.
func (st *Store) At(v Version) (*storage.Database, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if v < 1 || int(v) > len(st.versions) {
		return nil, fmt.Errorf("%w: %d (latest is %d)", ErrUnknownVersion, v, len(st.versions))
	}
	return st.versions[v-1], nil
}

// Info returns the commit metadata of a version, or ErrUnknownVersion.
func (st *Store) Info(v Version) (VersionInfo, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if v < 1 || int(v) > len(st.infos) {
		return VersionInfo{}, fmt.Errorf("%w: %d (latest is %d)", ErrUnknownVersion, v, len(st.infos))
	}
	return st.infos[v-1], nil
}

// History returns commit metadata for all versions, oldest first.
func (st *Store) History() []VersionInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]VersionInfo, len(st.infos))
	copy(out, st.infos)
	return out
}

// Digest computes the canonical SHA-256 digest of a query result: tuples
// sorted, rendered canonically, and hashed. Two results digest equal iff
// they are equal as sets.
func Digest(tuples []storage.Tuple) string {
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DatabaseDigest computes the canonical SHA-256 digest of a whole
// database: relations in schema order, each hashed as its name, a 0xff
// byte, and its canonical encoding (storage.Relation.Canonical: tuples in
// sorted order, each key followed by a 0 byte). Two databases digest equal
// iff every relation is equal as a set. Commit log entries carry this
// digest so recovery can prove a rebuilt snapshot is byte-equivalent to
// the one the original process committed.
//
// On a mutable head the per-relation encodings are memoized, so the cost
// is a sort of the relations written since the previous digest plus one
// hash pass over the database's bytes. On a frozen snapshot every
// relation is sorted and rendered afresh.
func DatabaseDigest(db *storage.Database) string {
	h := sha256.New()
	for _, name := range db.Schema().Names() {
		h.Write([]byte(name))
		h.Write([]byte{0xff})
		h.Write(db.Relation(name).Canonical())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PinnedCitation fixes a query result in time: the query text, the version
// it was executed against, the commit timestamp, and the result digest.
// This is the machine-actionable part of a citation (§3: "the citation
// must include a mechanism of obtaining the data").
type PinnedCitation struct {
	QueryText string
	Version   Version
	Timestamp time.Time
	Digest    string
	Tuples    int
}

// String renders the pin for embedding in a human-readable citation.
func (p PinnedCitation) String() string {
	return fmt.Sprintf("query=%q version=%d retrieved=%s sha256=%s",
		p.QueryText, p.Version, p.Timestamp.UTC().Format(time.RFC3339), p.Digest)
}

// Execute runs q against the given version and returns the result with a
// pinned citation.
func (st *Store) Execute(q *cq.Query, v Version) ([]storage.Tuple, PinnedCitation, error) {
	//lint:detach context-free public API: Execute is the no-cancellation wrapper over ExecuteContext
	return st.ExecuteContext(context.Background(), q, v)
}

// ExecuteContext is Execute with cooperative cancellation: the result
// enumeration polls ctx and aborts with ctx.Err() when it is canceled. An
// unknown version reports ErrUnknownVersion.
func (st *Store) ExecuteContext(ctx context.Context, q *cq.Query, v Version) ([]storage.Tuple, PinnedCitation, error) {
	db, err := st.At(v)
	if err != nil {
		return nil, PinnedCitation{}, err
	}
	info, err := st.Info(v)
	if err != nil {
		return nil, PinnedCitation{}, err
	}
	tuples, err := eval.EvalContext(ctx, db, q)
	if err != nil {
		return nil, PinnedCitation{}, err
	}
	pin := PinnedCitation{
		QueryText: q.String(),
		Version:   v,
		Timestamp: info.Timestamp,
		Digest:    Digest(tuples),
		Tuples:    len(tuples),
	}
	return tuples, pin, nil
}

// ExecuteLatest runs q against the newest committed version.
func (st *Store) ExecuteLatest(q *cq.Query) ([]storage.Tuple, PinnedCitation, error) {
	v := st.Latest()
	if v == 0 {
		return nil, PinnedCitation{}, fmt.Errorf("fixity: no committed versions")
	}
	return st.Execute(q, v)
}

// Verify re-executes the pinned query against its pinned version and
// reports whether the result digest still matches — the fixity guarantee.
func (st *Store) Verify(pin PinnedCitation) (bool, error) {
	q, err := cq.Parse(pin.QueryText)
	if err != nil {
		return false, fmt.Errorf("fixity: pinned query does not parse: %w", err)
	}
	tuples, _, err := st.Execute(q, pin.Version)
	if err != nil {
		return false, err
	}
	return Digest(tuples) == pin.Digest, nil
}
