// Package storage implements the in-memory relational store that underpins
// the data-citation engine. It provides set-semantics relations with
// optional hash indexes per column, bulk loading, and a Database that binds
// relation instances to a schema.
//
// The store is deliberately simple — the paper's computational content is in
// query rewriting and annotation propagation, not storage — but it is
// complete enough to support the evaluation engine's index-nested-loop
// joins, cardinality statistics for cost estimation, and copy-on-write
// snapshots for the fixity subsystem.
//
// Concurrency model (see DESIGN.md §3): every Relation is safe for
// concurrent readers and writers via an internal RWMutex. Snapshot produces
// a frozen relation that shares the backing storage with its source; frozen
// relations are immutable from birth, so their readers skip locking
// entirely. The source relation detaches (copies the shared storage) before
// its next mutation, making snapshot creation O(1) per relation no matter
// how large the data is.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is an ordered list of values matching a relation schema.
type Tuple []value.Value

// Equal reports element-wise equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by value.Compare.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key renders the tuple as a canonical string usable as a map key.
func (t Tuple) Key() string {
	var buf [128]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the tuple's canonical rendering (Key) to dst and
// returns the extended slice: per value its kind digit and its String
// form, values separated by 0x1f.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, byte('0'+v.Kind()))
		dst = v.AppendString(dst)
	}
	return dst
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Quote()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a set-semantics collection of tuples conforming to a schema,
// with lazily built hash indexes per column. It is safe for concurrent use;
// frozen snapshots (see Snapshot) additionally serve readers without any
// locking.
type Relation struct {
	schema *schema.Relation

	mu     sync.RWMutex
	frozen bool // immutable snapshot: set at construction, never cleared
	shared bool // backing storage shared with a snapshot; detach before writing

	tuples  []Tuple
	present map[string]int // tuple key -> index into tuples (or -1 if deleted)
	indexes map[int]map[value.Value][]int

	// Statistics cache for the query planner. distinct memoizes per-column
	// distinct counts; it is dropped on every content mutation (Insert,
	// Delete, InsertBatch, DeleteBatch) and therefore permanent on frozen
	// relations. statsMu is separate from mu so frozen relations — whose
	// readers skip mu entirely — can still fill the cache; it is never held
	// while acquiring mu. statsGen is atomic so the columnar-block fast
	// path can validate a block's generation without taking any lock.
	statsMu  sync.Mutex
	statsGen atomic.Uint64
	distinct map[int]int

	// canon memoizes Canonical on mutable relations (nil = not computed;
	// an empty relation memoizes a non-nil empty slice). Guarded by
	// statsMu and dropped by bumpStats exactly like distinct, so a non-nil
	// memo always describes the current generation. Frozen relations never
	// set it: a snapshot's encoding is rebuilt on demand rather than kept
	// once per version.
	canon []byte

	// Columnar cache (see columnar.go): the current dictionary-encoded
	// block, the demand counter that decides when a mutable relation earns
	// one, and the builder lock. Dropped by bumpStats on every content
	// mutation; permanent on frozen snapshots.
	colBlk    atomic.Pointer[ColBlock]
	colDemand atomic.Uint32
	colMu     sync.Mutex
}

// NewRelation creates an empty relation instance for the given schema.
func NewRelation(rs *schema.Relation) *Relation {
	return &Relation{
		schema:  rs,
		present: make(map[string]int),
		indexes: make(map[int]map[value.Value][]int),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Relation { return r.schema }

// Frozen reports whether the relation is an immutable snapshot.
func (r *Relation) Frozen() bool { return r.frozen }

// rLock acquires the read lock unless the relation is frozen (immutable
// from birth, so lock-free reads are safe). Callers must pair it with
// rUnlock.
func (r *Relation) rLock() {
	if !r.frozen {
		//lint:lockscope lock-handoff helper: callers pair rLock with rUnlock
		r.mu.RLock()
	}
}

func (r *Relation) rUnlock() {
	if !r.frozen {
		r.mu.RUnlock()
	}
}

// wLock acquires the write lock, panics if the relation is a frozen
// snapshot, and detaches shared backing storage so a pending snapshot is
// never mutated. Callers must pair it with r.mu.Unlock.
func (r *Relation) wLock() {
	if r.frozen {
		panic(fmt.Sprintf("storage: relation %s: write to frozen snapshot", r.schema.Name))
	}
	//lint:lockscope lock-handoff helper: callers pair wLock with r.mu.Unlock
	r.mu.Lock()
	r.detach()
}

// detach copies backing storage shared with a snapshot. Tuples themselves
// are never mutated in place, so the copy is shallow: the tuple slice and
// the maps are duplicated, the tuples and index posting lists are shared
// (appending to a posting list only ever writes beyond the snapshot's
// visible length).
//
//lint:nobump content-preserving copy: the tuple set is identical, only the backing storage is privatized
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	tuples := make([]Tuple, len(r.tuples))
	copy(tuples, r.tuples)
	present := make(map[string]int, len(r.present))
	for k, v := range r.present {
		present[k] = v
	}
	indexes := make(map[int]map[value.Value][]int, len(r.indexes))
	for col, ix := range r.indexes {
		nix := make(map[value.Value][]int, len(ix))
		for v, rows := range ix {
			nix[v] = rows
		}
		indexes[col] = nix
	}
	r.tuples, r.present, r.indexes = tuples, present, indexes
	r.shared = false
}

// Snapshot returns an immutable view of the relation's current contents.
// The snapshot shares backing storage with the source, so creation is O(1);
// the source copies the storage lazily before its next mutation. Snapshots
// of a snapshot return the receiver.
func (r *Relation) Snapshot() *Relation {
	if r.frozen {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared = true
	snap := &Relation{
		schema:  r.schema,
		frozen:  true,
		tuples:  r.tuples,
		present: r.present,
		indexes: r.indexes,
	}
	// A columnar block current at snapshot time describes exactly the
	// contents being frozen, so the snapshot adopts it: commits of a
	// read-hot head hand out snapshots that are columnar from birth.
	// mu is held, so the generation cannot move under the check.
	if blk := r.colBlk.Load(); blk != nil && blk.gen == r.statsGen.Load() {
		snap.colBlk.Store(blk)
		colSnapshots.Add(1)
	}
	return snap
}

// Len returns the number of live tuples.
func (r *Relation) Len() int {
	r.rLock()
	defer r.rUnlock()
	return len(r.present)
}

// Insert adds a tuple; it is a no-op (returning false) if an equal tuple is
// already present. It returns an error if the arity or kinds mismatch the
// schema, and panics if the relation is a frozen snapshot.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if err := r.checkTuple(t); err != nil {
		return false, err
	}
	r.wLock()
	defer r.mu.Unlock()
	k := t.Key()
	if _, ok := r.present[k]; ok {
		return false, nil
	}
	// Amortized hole reclamation: if deletions have left more holes than
	// live tuples, compact before growing the backing slice further.
	if holes := len(r.tuples) - len(r.present); holes > 64 && holes > len(r.present) {
		r.compactLocked()
	}
	idx := len(r.tuples)
	r.tuples = append(r.tuples, t.Clone())
	r.present[k] = idx
	for col, ix := range r.indexes {
		ix[t[col]] = append(ix[t[col]], idx)
	}
	r.bumpStats()
	return true, nil
}

// bumpStats drops the statistics and columnar caches after a content
// mutation. Called with mu held; statsMu is acquired on its own (no lock
// cycle: statsMu is never held while acquiring mu).
func (r *Relation) bumpStats() {
	r.statsMu.Lock()
	r.statsGen.Add(1)
	r.distinct = nil
	r.canon = nil
	r.statsMu.Unlock()
	// Readers validate blk.gen against statsGen, so clearing the pointer
	// is an optimization (freeing the memory promptly), not a correctness
	// requirement. The demand counter restarts: a relation must prove
	// it is read-hot again after every write before the next build.
	r.colBlk.Store(nil)
	r.colDemand.Store(0)
}

// Check validates a tuple against the relation schema (arity and value
// kinds) without touching the data. The durable layer calls it before a
// batch is journaled, so the commit log never records a tuple the
// relation would reject on replay.
func (r *Relation) Check(t Tuple) error { return r.checkTuple(t) }

// Generation returns a counter that advances on every content mutation
// (and never otherwise — index builds, snapshots and statistics reads
// leave it alone). The durable layer compares generations to detect
// head mutations that bypassed the journaled API: journaling a commit
// whose contents the log cannot reproduce would make the directory
// unrecoverable, so such a commit must be refused up front.
func (r *Relation) Generation() uint64 {
	return r.statsGen.Load()
}

// InsertBatch inserts a batch of tuples under one lock acquisition,
// returning how many were actually added (duplicates are no-ops, exactly
// as in Insert). The whole batch is validated first: on a schema
// mismatch nothing is inserted. This is the bulk path used by network
// ingest and log replay.
func (r *Relation) InsertBatch(ts []Tuple) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	for _, t := range ts {
		if err := r.checkTuple(t); err != nil {
			return 0, err
		}
	}
	r.wLock()
	defer r.mu.Unlock()
	added := 0
	for _, t := range ts {
		k := t.Key()
		if _, ok := r.present[k]; ok {
			continue
		}
		if holes := len(r.tuples) - len(r.present); holes > 64 && holes > len(r.present) {
			r.compactLocked()
		}
		idx := len(r.tuples)
		r.tuples = append(r.tuples, t.Clone())
		r.present[k] = idx
		for col, ix := range r.indexes {
			ix[t[col]] = append(ix[t[col]], idx)
		}
		added++
	}
	if added > 0 {
		r.bumpStats()
	}
	return added, nil
}

// DeleteBatch removes a batch of tuples under one lock acquisition,
// returning how many were present (and therefore removed). Tuples are
// validated against the schema first so replayed deletions fail loudly
// rather than silently matching nothing.
func (r *Relation) DeleteBatch(ts []Tuple) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	for _, t := range ts {
		if err := r.checkTuple(t); err != nil {
			return 0, err
		}
	}
	r.wLock()
	defer r.mu.Unlock()
	removed := 0
	for _, t := range ts {
		k := t.Key()
		idx, ok := r.present[k]
		if !ok {
			continue
		}
		delete(r.present, k)
		r.tuples[idx] = nil
		removed++
	}
	if removed > 0 {
		r.bumpStats()
	}
	return removed, nil
}

// MustInsert inserts and panics on schema mismatch; duplicate inserts are
// silently ignored. Intended for generators and tests.
func (r *Relation) MustInsert(vals ...value.Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Delete removes a tuple if present, returning whether it was removed.
// Deletion leaves a hole in the backing slice (nil tuple) so index entries
// can be skipped cheaply; Compact reclaims space.
func (r *Relation) Delete(t Tuple) bool {
	r.wLock()
	defer r.mu.Unlock()
	k := t.Key()
	idx, ok := r.present[k]
	if !ok {
		return false
	}
	delete(r.present, k)
	r.tuples[idx] = nil
	r.bumpStats()
	return true
}

// Contains reports whether the relation holds the tuple.
func (r *Relation) Contains(t Tuple) bool {
	r.rLock()
	defer r.rUnlock()
	_, ok := r.present[t.Key()]
	return ok
}

// Compact rebuilds internal storage after deletions, dropping holes and
// rebuilding all indexes.
func (r *Relation) Compact() {
	r.wLock()
	defer r.mu.Unlock()
	r.compactLocked()
}

// compactLocked squeezes deletion holes out of the tuple slice.
//
//lint:nobump content-preserving rewrite: same live tuples, fresh backing storage; callers bump when the content changed
func (r *Relation) compactLocked() {
	live := make([]Tuple, 0, len(r.present))
	for _, t := range r.tuples {
		if t != nil {
			live = append(live, t)
		}
	}
	r.tuples = live
	r.present = make(map[string]int, len(live))
	for i, t := range live {
		r.present[t.Key()] = i
	}
	cols := make([]int, 0, len(r.indexes))
	for col := range r.indexes {
		cols = append(cols, col)
	}
	r.indexes = make(map[int]map[value.Value][]int)
	for _, col := range cols {
		r.buildIndexLocked(col)
	}
}

// BuildIndex constructs (or rebuilds) a hash index on the given column.
func (r *Relation) BuildIndex(col int) {
	r.wLock()
	defer r.mu.Unlock()
	r.buildIndexLocked(col)
}

func (r *Relation) buildIndexLocked(col int) {
	ix := make(map[value.Value][]int)
	for i, t := range r.tuples {
		if t == nil {
			continue
		}
		ix[t[col]] = append(ix[t[col]], i)
	}
	r.indexes[col] = ix
}

// EnsureIndex builds a hash index on the column if one does not exist yet,
// reporting whether an index is available afterwards. On frozen snapshots
// no index can be built (they are immutable), so the report is simply
// whether the snapshot inherited one — frozen relations instead serve
// probes through their columnar block (ColumnarBlock), which any reader
// can build because it lives outside the frozen storage. The query
// planner calls this for the probe columns it selects on mutable
// relations.
func (r *Relation) EnsureIndex(col int) bool {
	if r.HasIndex(col) {
		return true
	}
	if r.frozen {
		return false
	}
	r.BuildIndex(col)
	return true
}

// HasIndex reports whether a hash index exists on the column.
func (r *Relation) HasIndex(col int) bool {
	r.rLock()
	defer r.rUnlock()
	_, ok := r.indexes[col]
	return ok
}

// Lookup returns the live tuples whose column col equals v, using the index
// if present and scanning otherwise.
func (r *Relation) Lookup(col int, v value.Value) []Tuple {
	r.rLock()
	defer r.rUnlock()
	if ix, ok := r.indexes[col]; ok {
		rows := ix[v]
		out := make([]Tuple, 0, len(rows))
		for _, i := range rows {
			if t := r.tuples[i]; t != nil {
				out = append(out, t)
			}
		}
		return out
	}
	var out []Tuple
	for _, t := range r.tuples {
		if t != nil && t[col] == v {
			out = append(out, t)
		}
	}
	return out
}

// AppendLookup appends the live tuples whose column col equals v to dst and
// returns the extended slice, using the index if present and scanning
// otherwise. It is Lookup with a caller-provided buffer: the compiled-plan
// evaluator reuses one buffer per join depth, so a warm plan probes without
// allocating. The appended tuples remain valid after the call (tuples are
// never mutated in place).
func (r *Relation) AppendLookup(dst []Tuple, col int, v value.Value) []Tuple {
	r.rLock()
	defer r.rUnlock()
	if ix, ok := r.indexes[col]; ok {
		for _, i := range ix[v] {
			if t := r.tuples[i]; t != nil {
				dst = append(dst, t)
			}
		}
		return dst
	}
	for _, t := range r.tuples {
		if t != nil && t[col] == v {
			dst = append(dst, t)
		}
	}
	return dst
}

// AppendTuples appends every live tuple to dst (insertion order) and
// returns the extended slice — Tuples with a caller-provided buffer.
func (r *Relation) AppendTuples(dst []Tuple) []Tuple {
	r.rLock()
	defer r.rUnlock()
	for _, t := range r.tuples {
		if t != nil {
			dst = append(dst, t)
		}
	}
	return dst
}

// Scan invokes fn for every live tuple; fn returning false stops the scan.
// fn must not mutate the relation (the scan holds the read lock).
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.rLock()
	defer r.rUnlock()
	for _, t := range r.tuples {
		if t == nil {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Tuples returns a snapshot slice of all live tuples in insertion order.
func (r *Relation) Tuples() []Tuple {
	out, _ := r.tuplesGen()
	return out
}

// tuplesGen is Tuples plus the content generation the returned tuples
// belong to, read under the same lock so the pair is consistent.
func (r *Relation) tuplesGen() ([]Tuple, uint64) {
	r.rLock()
	defer r.rUnlock()
	out := make([]Tuple, 0, len(r.present))
	for _, t := range r.tuples {
		if t != nil {
			out = append(out, t)
		}
	}
	return out, r.statsGen.Load()
}

// SortedTuples returns all live tuples in canonical (lexicographic) order,
// for deterministic output in tests and formatters.
func (r *Relation) SortedTuples() []Tuple {
	return sortTuples(r.Tuples())
}

func sortTuples(ts []Tuple) []Tuple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// Canonical returns the relation's canonical encoding: the live tuples in
// SortedTuples order, each rendered by AppendKey and followed by a 0 byte.
// The database digest (fixity.DatabaseDigest) hashes it, so its bytes are
// part of every durable data directory and must never change.
//
// On a mutable relation the encoding is memoized until the next content
// mutation, so a commit re-sorts only the relations written since the
// previous digest. Following DistinctCount, a fill stores its result only
// if no mutation landed while it ran; bumpStats drops the memo, so the
// call never returns an encoding older than the generation current when
// it started. Frozen snapshots compute the encoding on every call and
// keep nothing. The returned slice is shared and must not be modified.
func (r *Relation) Canonical() []byte {
	if r.frozen {
		return encodeCanonical(r.SortedTuples())
	}
	r.statsMu.Lock()
	c := r.canon
	r.statsMu.Unlock()
	if c != nil {
		return c
	}
	ts, gen := r.tuplesGen()
	c = encodeCanonical(sortTuples(ts))
	r.statsMu.Lock()
	if r.statsGen.Load() == gen {
		r.canon = c
	}
	r.statsMu.Unlock()
	return c
}

// encodeCanonical renders sorted tuples as Canonical describes. The
// capacity guess is about the mean key length of the GtoPdb fixture; the
// result is always non-nil, even for no tuples.
func encodeCanonical(sorted []Tuple) []byte {
	dst := make([]byte, 0, 32*len(sorted))
	for _, t := range sorted {
		dst = t.AppendKey(dst)
		dst = append(dst, 0)
	}
	return dst
}

// DistinctCount returns the number of distinct values in column col. It is
// used by the schema-level citation-size estimator and by the query
// planner's selectivity estimates. Results are memoized until the next
// content mutation; on frozen relations the cache is permanent, so a plan
// compiled against a snapshot reads statistics at map-lookup cost.
func (r *Relation) DistinctCount(col int) int {
	// A current columnar block answers for free: the dictionary length is
	// the distinct count, exact by construction. On frozen snapshots this
	// is the permanent memo the planner reads on every compile.
	if blk := r.colBlk.Load(); blk != nil && (r.frozen || blk.gen == r.statsGen.Load()) {
		return blk.DistinctCount(col)
	}
	r.statsMu.Lock()
	if n, ok := r.distinct[col]; ok {
		r.statsMu.Unlock()
		return n
	}
	gen := r.statsGen.Load()
	r.statsMu.Unlock()

	n := r.distinctCount(col)

	// Store only if no mutation landed while we computed, so a stale count
	// can never mask newer contents.
	r.statsMu.Lock()
	if r.statsGen.Load() == gen {
		if r.distinct == nil {
			r.distinct = make(map[int]int, r.schema.Arity())
		}
		r.distinct[col] = n
	}
	r.statsMu.Unlock()
	return n
}

// distinctCount computes the distinct count uncached.
func (r *Relation) distinctCount(col int) int {
	r.rLock()
	defer r.rUnlock()
	if ix, ok := r.indexes[col]; ok {
		n := 0
		for _, rows := range ix {
			for _, i := range rows {
				if r.tuples[i] != nil {
					n++
					break
				}
			}
		}
		return n
	}
	seen := make(map[value.Value]struct{})
	for _, t := range r.tuples {
		if t != nil {
			seen[t[col]] = struct{}{}
		}
	}
	return len(seen)
}

// Clone returns a deep copy of the relation (tuples are shared, which is
// safe because tuples are never mutated in place). Unlike Snapshot, the
// copy is mutable and fully independent.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.schema)
	cols := make([]int, 0)
	r.rLock()
	for _, t := range r.tuples {
		if t == nil {
			continue
		}
		out.tuples = append(out.tuples, t)
		out.present[t.Key()] = len(out.tuples) - 1
	}
	for col := range r.indexes {
		cols = append(cols, col)
	}
	r.rUnlock()
	for _, col := range cols {
		out.buildIndexLocked(col)
	}
	return out
}

func (r *Relation) checkTuple(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("storage: relation %s: tuple arity %d, want %d", r.schema.Name, len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.Kind() != r.schema.Attributes[i].Kind {
			return fmt.Errorf("storage: relation %s: attribute %s: kind %s, want %s",
				r.schema.Name, r.schema.Attributes[i].Name, v.Kind(), r.schema.Attributes[i].Kind)
		}
	}
	return nil
}

// Database binds relation instances to a schema. It is safe for concurrent
// readers and writers; Snapshot produces immutable versions for the fixity
// layer.
type Database struct {
	frozen    bool
	schema    *schema.Schema
	relations map[string]*Relation
}

// NewDatabase creates a database with one empty relation instance per
// schema relation.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{schema: s, relations: make(map[string]*Relation, s.Len())}
	for _, name := range s.Names() {
		db.relations[name] = NewRelation(s.Relation(name))
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.schema }

// Frozen reports whether the database is an immutable snapshot.
func (db *Database) Frozen() bool { return db.frozen }

// Relation returns the named relation instance, or nil. The relation map is
// fixed at construction, so no locking is needed.
func (db *Database) Relation(name string) *Relation {
	return db.relations[name]
}

// Insert adds a tuple to the named relation.
func (db *Database) Insert(relation string, vals ...value.Value) error {
	if db.frozen {
		return fmt.Errorf("storage: insert into %s: database snapshot is immutable", relation)
	}
	r, ok := db.relations[relation]
	if !ok {
		return fmt.Errorf("storage: unknown relation %s", relation)
	}
	_, err := r.Insert(Tuple(vals))
	return err
}

// Delete removes a tuple from the named relation, reporting whether it was
// present.
func (db *Database) Delete(relation string, vals ...value.Value) (bool, error) {
	if db.frozen {
		return false, fmt.Errorf("storage: delete from %s: database snapshot is immutable", relation)
	}
	r, ok := db.relations[relation]
	if !ok {
		return false, fmt.Errorf("storage: unknown relation %s", relation)
	}
	return r.Delete(Tuple(vals)), nil
}

// MutationGen sums the relations' content-mutation generations — a
// database-wide token that moves iff some relation's contents were
// mutated. See Relation.Generation.
func (db *Database) MutationGen() uint64 {
	var g uint64
	for _, r := range db.relations {
		g += r.Generation()
	}
	return g
}

// Size returns the total number of live tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.relations {
		n += r.Len()
	}
	return n
}

// Clone returns a deep, mutable copy of the database.
func (db *Database) Clone() *Database {
	out := &Database{schema: db.schema, relations: make(map[string]*Relation, len(db.relations))}
	for name, r := range db.relations {
		out.relations[name] = r.Clone()
	}
	return out
}

// Snapshot returns an immutable copy-on-write view of the database — the
// cheap versioning primitive behind fixity commits. Creation cost is
// O(relations), not O(data): each relation shares storage with its
// snapshot and detaches lazily on its next write. Snapshot readers join
// through whatever access support the source already earned — inherited
// hash indexes, an inherited columnar block, or the block the planner
// builds on first access (frozen relations columnarize on demand and keep
// the block forever; see ColumnarBlock) — so commits never pay an eager
// per-column index build for columns no query probes.
func (db *Database) Snapshot() *Database {
	out := &Database{frozen: true, schema: db.schema, relations: make(map[string]*Relation, len(db.relations))}
	for name, r := range db.relations {
		out.relations[name] = r.Snapshot()
	}
	return out
}

// BuildIndexes constructs hash indexes on every column of every relation.
// The evaluator works without indexes; building them turns joins into
// index-nested-loop joins.
func (db *Database) BuildIndexes() {
	for _, r := range db.relations {
		for col := 0; col < r.schema.Arity(); col++ {
			r.BuildIndex(col)
		}
	}
}

// String summarizes relation cardinalities, one per line.
func (db *Database) String() string {
	names := db.schema.Names()
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: %d tuples", n, db.relations[n].Len())
	}
	return b.String()
}
