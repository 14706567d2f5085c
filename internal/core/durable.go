package core

import (
	"fmt"
	"time"

	"repro/internal/citation"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/storage"
)

// DurableOptions configures the durability subsystem attached to a
// System by EnableDurability or Open. The zero value is usable:
// on-commit fsync, 4 MiB segments, checkpoints only on demand.
type DurableOptions struct {
	// Fsync selects when appended log bytes reach stable storage:
	// durable.FsyncOnCommit (commit and configuration entries; the zero
	// value and default), durable.FsyncAlways (every entry), or
	// durable.FsyncInterval (a background timer).
	Fsync durable.FsyncPolicy
	// SyncInterval is the FsyncInterval timer period (0 = 100 ms).
	SyncInterval time.Duration
	// SegmentBytes rolls log segments at this size (0 = 4 MiB).
	SegmentBytes int64
	// CheckpointEvery writes an automatic checkpoint after every N
	// commits (0 = only explicit Checkpoint calls).
	CheckpointEvery int
	// ReadOnly makes Open recover the state without attaching the log
	// for writing: the resulting System serves reads but rejects
	// journaled mutations, and it leaves the directory untouched — what
	// inspection tools (citegen -open) want while a server owns the dir.
	ReadOnly bool
}

// DurabilityStats is the point-in-time durability gauge set exposed on
// the server's /metrics endpoint.
type DurabilityStats struct {
	// Enabled reports whether a commit log is attached for writing.
	Enabled bool
	// Fsync names the active fsync policy.
	Fsync string
	// Segments counts log segment files, the active one included.
	Segments int
	// BytesSinceCheckpoint counts log bytes appended since the last
	// checkpoint (or since open).
	BytesSinceCheckpoint int64
	// Checkpoints counts checkpoints written by this process.
	Checkpoints int64
	// LastRecovery is how long the last Open recovery took (0 when the
	// system was not recovered from a directory).
	LastRecovery time.Duration
	// RecoveredVersion is the latest committed version rebuilt by Open
	// (0 when the system was not recovered).
	RecoveredVersion fixity.Version
}

// PolicyByName resolves the named combination policies the commands and
// the commit log use: "minsize" (the default, also "" and "default"),
// "maxcoverage" and "all". The boolean reports whether the name is known.
func PolicyByName(name string) (policy.Policy, bool) {
	p := policy.Default()
	switch name {
	case "", "default", "minsize":
		p.AltR = policy.MinSize
	case "maxcoverage":
		p.AltR = policy.MaxCoverage
	case "all":
		p.AltR = policy.AllBranches
	default:
		return p, false
	}
	return p, true
}

// EnableDurability initializes dir as this system's data directory and
// attaches the commit log: the manifest pins the schema, a checkpoint
// captures the system's current state (tuples, views, policy, any
// already-committed versions), and every subsequent journaled mutation —
// Insert, Delete, Commit, DefineView, SetPolicyNamed — appends to the
// log before touching the store. The directory must not be initialized
// yet; reattaching to an existing directory is Open's job, and doing it
// here would silently fork the history.
func (s *System) EnableDurability(dir string, opts DurableOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return fmt.Errorf("core: durability already enabled (%s)", s.walDir)
	}
	if opts.ReadOnly {
		return fmt.Errorf("core: cannot enable durability read-only; ReadOnly is an Open option")
	}
	if durable.Initialized(dir) {
		return fmt.Errorf("core: %s is already a data directory; recover from it with Open instead", dir)
	}
	//lint:lockscope one-time enablement: manifest/checkpoint/log creation must see a quiescent head, so it runs under the writer lock
	if err := durable.WriteManifest(dir, s.store.Head().Schema()); err != nil {
		return err
	}
	ckpt := s.buildCheckpointLocked(0)
	//lint:lockscope one-time enablement: the checkpoint snapshots the head the lock is freezing
	if err := durable.WriteCheckpoint(dir, ckpt); err != nil {
		return err
	}
	//lint:lockscope one-time enablement: the log must open before any mutation can race it into existence
	wal, err := durable.OpenLog(dir, 0, durable.LogOptions{
		Fsync:        opts.Fsync,
		SyncInterval: opts.SyncInterval,
		SegmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return err
	}
	s.wal = wal
	s.walDir = dir
	s.walOpts = opts
	s.walGen = s.store.Head().MutationGen()
	return nil
}

// Open recovers a System from a durable data directory: the manifest
// yields the schema, the newest checkpoint restores the bulk of the
// state, and the log tail replays on top — rebuilding the exact fixity
// version history (same version numbers, timestamps, messages and
// digests; every rebuilt snapshot is verified against the digest its
// commit entry recorded). A torn log tail recovers the longest clean
// prefix; checksum or sequencing damage anywhere else reports an error
// wrapping durable.ErrCorrupt rather than serving a mangled state.
//
// Unless opts.ReadOnly is set, the recovered system continues journaling
// to the same directory.
func Open(dir string, opts DurableOptions) (*System, error) {
	start := time.Now()
	sch, err := durable.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	sys := NewSystem(sch)
	head := sys.store.Head()

	watermark := uint64(0)
	ckpt, err := durable.LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		watermark = ckpt.Watermark
		if err := sys.applyPolicyName(ckpt.Policy); err != nil {
			return nil, err
		}
		for _, vd := range ckpt.Views {
			if err := sys.applyViewDef(vd); err != nil {
				return nil, err
			}
		}
		for _, vs := range ckpt.Versions {
			if err := durable.ApplyDelta(head, vs.Delta); err != nil {
				return nil, err
			}
			if err := sys.restoreVersion(vs.Meta); err != nil {
				return nil, err
			}
		}
		if err := durable.ApplyDelta(head, ckpt.Head); err != nil {
			return nil, err
		}
	}

	next, err := durable.Replay(dir, watermark, func(lsn uint64, e durable.Entry) error {
		if err := sys.applyEntry(e); err != nil {
			return fmt.Errorf("entry %d (%s): %w", lsn, e.Type, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Recovery rebuilds data only; indexes and columnar blocks reappear
	// on demand as the planner's EnsureIndex/ColumnarBlock calls touch the
	// columns real queries probe, keeping restart cost proportional to the
	// log, not to schema width.
	sys.gen.InvalidateCache()
	// Replay mutated relations past the construction-time baseline; the
	// caches are empty now, so re-baseline: the first post-recovery commit
	// must not mistake replayed history for fresh deltas.
	sys.syncRelGensLocked()
	sys.recoveryDur = time.Since(start)
	sys.recoveredVer = sys.store.Latest()
	sys.readOnly = opts.ReadOnly

	if !opts.ReadOnly {
		wal, err := durable.OpenLog(dir, next, durable.LogOptions{
			Fsync:        opts.Fsync,
			SyncInterval: opts.SyncInterval,
			SegmentBytes: opts.SegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		sys.wal = wal
		sys.walDir = dir
		sys.walOpts = opts
		sys.walGen = head.MutationGen()
	}
	return sys, nil
}

// applyEntry applies one replayed log entry to the system, without
// journaling. It runs before the system is shared, so no locking.
func (s *System) applyEntry(e durable.Entry) error {
	head := s.store.Head()
	switch e.Type {
	case durable.EntryInsert:
		r := head.Relation(e.Relation)
		if r == nil {
			return fmt.Errorf("unknown relation %s", e.Relation)
		}
		if _, err := r.InsertBatch(e.Tuples); err != nil {
			return err
		}
		s.epoch++
		s.relEpochs[e.Relation] = s.epoch
	case durable.EntryDelete:
		r := head.Relation(e.Relation)
		if r == nil {
			return fmt.Errorf("unknown relation %s", e.Relation)
		}
		if _, err := r.DeleteBatch(e.Tuples); err != nil {
			return err
		}
		s.epoch++
		s.relEpochs[e.Relation] = s.epoch
	case durable.EntryCommit:
		if err := s.restoreVersion(e.Commit); err != nil {
			return err
		}
		s.epoch++
	case durable.EntryDefineView:
		if err := s.applyViewDef(durable.ViewDef{Src: e.ViewSrc, Cites: e.Cites, Static: e.Static}); err != nil {
			return err
		}
		s.epoch++
		s.cfg++
	case durable.EntrySetPolicy:
		if err := s.applyPolicyName(e.Policy); err != nil {
			return err
		}
		s.epoch++
		s.cfg++
	default:
		return fmt.Errorf("unknown entry type %d", e.Type)
	}
	return nil
}

// restoreVersion rebuilds one committed version from its logged metadata
// and proves the rebuilt snapshot digests identically to the one the
// original process committed.
//
// The digest is taken on the head right after RestoreCommit rather than on
// the new frozen snapshot: the contents are identical at that point
// (recovery is single-threaded), and the head memoizes each relation's
// canonical encoding, so a replayed version re-sorts only the relations
// its batches touched instead of the whole database.
func (s *System) restoreVersion(meta durable.CommitMeta) error {
	info := fixity.VersionInfo{
		Version:   fixity.Version(meta.Version),
		Timestamp: time.Unix(0, meta.Timestamp).UTC(),
		Message:   meta.Message,
		Tuples:    int(meta.Tuples),
	}
	if err := s.store.RestoreCommit(info); err != nil {
		return err
	}
	if got := fixity.DatabaseDigest(s.store.Head()); got != meta.Digest {
		return fmt.Errorf("%w: version %d digest mismatch: rebuilt %s, committed %s",
			durable.ErrCorrupt, info.Version, got, meta.Digest)
	}
	s.setDigestLocked(info.Version, meta.Digest)
	return nil
}

// setDigestLocked records version v's verified database digest. Called
// with the exclusive system lock held (or before the system is shared).
func (s *System) setDigestLocked(v fixity.Version, digest string) {
	for len(s.digests) < int(v) {
		s.digests = append(s.digests, "")
	}
	s.digests[v-1] = digest
}

// versionDigestLocked returns version v's database digest: the one its
// durable commit or restore recorded, or — for a version committed before
// EnableDurability — one computed from its snapshot now and kept. Called
// with the exclusive system lock held (or before the system is shared).
func (s *System) versionDigestLocked(v fixity.Version, db *storage.Database) string {
	if int(v) <= len(s.digests) && s.digests[v-1] != "" {
		return s.digests[v-1]
	}
	d := fixity.DatabaseDigest(db)
	s.setDigestLocked(v, d)
	return d
}

// applyViewDef registers a logged view definition without journaling.
func (s *System) applyViewDef(vd durable.ViewDef) error {
	vq, err := cq.Parse(vd.Src)
	if err != nil {
		return fmt.Errorf("view query: %w", err)
	}
	v := &citation.View{Query: vq, Static: staticRecord(vd.Static)}
	for _, c := range vd.Cites {
		cqy, err := cq.Parse(c.Query)
		if err != nil {
			return fmt.Errorf("citation query: %w", err)
		}
		v.Citations = append(v.Citations, &citation.CitationQuery{Query: cqy, Fields: c.Fields})
	}
	return s.reg.Add(v)
}

// applyPolicyName resolves and installs a named policy without
// journaling.
func (s *System) applyPolicyName(name string) error {
	p, ok := PolicyByName(name)
	if !ok {
		return fmt.Errorf("unknown policy %q", name)
	}
	s.gen.SetPolicy(p)
	s.polName = name
	return nil
}

// staticPairs renders a record as ordered field/value pairs (canonical
// field order, values in insertion order) — the serializable form of the
// unordered Record map.
func staticPairs(rec format.Record) [][2]string {
	var out [][2]string
	for _, f := range rec.Fields() {
		for _, v := range rec[f] {
			out = append(out, [2]string{f, v})
		}
	}
	return out
}

// staticRecord rebuilds a record from its ordered pairs.
func staticRecord(pairs [][2]string) format.Record {
	if len(pairs) == 0 {
		return nil
	}
	rec := format.Record{}
	for _, kv := range pairs {
		rec.Add(kv[0], kv[1])
	}
	return rec
}

// buildCheckpointLocked serializes the full logical state at the given
// log watermark: the policy name, every view, the version history as a
// chain of canonical deltas (each with its commit metadata and digest),
// and the head as a delta from the latest version. Digests come from
// versionDigestLocked, so only versions committed before EnableDurability
// are ever digested here, and each of those once. Called with the
// exclusive system lock held (or before the system is shared).
func (s *System) buildCheckpointLocked(watermark uint64) *durable.Checkpoint {
	c := &durable.Checkpoint{Watermark: watermark, Policy: s.polName}
	for _, v := range s.reg.Views() {
		vd := durable.ViewDef{Src: v.Query.String(), Static: staticPairs(v.Static)}
		for _, cite := range v.Citations {
			vd.Cites = append(vd.Cites, durable.ViewCite{Query: cite.Query.String(), Fields: cite.Fields})
		}
		c.Views = append(c.Views, vd)
	}
	var prev *storage.Database
	for v := fixity.Version(1); v <= s.store.Latest(); v++ {
		db, err := s.store.At(v)
		if err != nil {
			panic(fmt.Sprintf("core: checkpoint: %v", err)) // unreachable under the exclusive lock
		}
		info, err := s.store.Info(v)
		if err != nil {
			panic(fmt.Sprintf("core: checkpoint: %v", err))
		}
		c.Versions = append(c.Versions, durable.VersionState{
			Meta: durable.CommitMeta{
				Version:   int64(info.Version),
				Timestamp: info.Timestamp.UnixNano(),
				Message:   info.Message,
				Tuples:    int64(info.Tuples),
				Digest:    s.versionDigestLocked(v, db),
			},
			Delta: durable.DiffDatabases(prev, db),
		})
		prev = db
	}
	c.Head = durable.DiffDatabases(prev, s.store.Head())
	return c
}

// Checkpoint durably serializes the system's full state and truncates
// the commit log: every segment before the checkpoint is deleted, so
// recovery cost and disk usage stay proportional to the churn since the
// last checkpoint, not the lifetime of the database. It requires an
// attached log (EnableDurability or a writable Open).
func (s *System) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *System) checkpointLocked() error {
	if s.wal == nil {
		return fmt.Errorf("core: durability not enabled")
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	ckpt := s.buildCheckpointLocked(s.wal.Next())
	if err := durable.WriteCheckpoint(s.walDir, ckpt); err != nil {
		return err
	}
	if err := s.wal.Checkpointed(ckpt.Watermark); err != nil {
		return err
	}
	s.commitsSinceCkpt = 0
	s.ckptCount++
	return nil
}

// CloseDurability syncs and detaches the commit log. The system remains
// usable in memory; further mutations are simply no longer journaled.
// Call Checkpoint first for a fast next recovery.
func (s *System) CloseDurability() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	//lint:lockscope detach point: closing and nil-ing the journal must be atomic or a racing mutation appends to a closed log
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Durability reports the durability gauges. ok is false when the system
// neither journals nor was recovered from a directory.
func (s *System) Durability() (stats DurabilityStats, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stats.LastRecovery = s.recoveryDur
	stats.RecoveredVersion = s.recoveredVer
	stats.Checkpoints = s.ckptCount
	if s.wal != nil {
		ls := s.wal.Stats()
		stats.Enabled = true
		stats.Fsync = ls.Fsync.String()
		stats.Segments = ls.Segments
		stats.BytesSinceCheckpoint = ls.BytesSinceCheckpoint
	}
	return stats, stats.Enabled || s.recoveredVer > 0 || s.recoveryDur > 0
}

// Insert journals and applies a batch of tuples to the named head
// relation, returning how many were actually added (duplicates are
// no-ops). The batch is validated against the schema first, the log
// entry is appended (and synced per the fsync policy) before storage is
// touched, and the system epoch advances — head citations can change, so
// external caches keyed on Version() turn over exactly as they do for
// Commit. On a system without durability the batch applies directly.
func (s *System) Insert(relation string, tuples []storage.Tuple) (int, error) {
	return s.mutate(relation, tuples, durable.EntryInsert)
}

// Delete journals and applies a batch deletion from the named head
// relation, returning how many tuples were present (and removed). See
// Insert for the journaling contract.
func (s *System) Delete(relation string, tuples []storage.Tuple) (int, error) {
	return s.mutate(relation, tuples, durable.EntryDelete)
}

func (s *System) mutate(relation string, tuples []storage.Tuple, typ durable.EntryType) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return 0, fmt.Errorf("core: system was opened read-only")
	}
	r := s.store.Head().Relation(relation)
	if r == nil {
		return 0, fmt.Errorf("core: unknown relation %s", relation)
	}
	for _, t := range tuples {
		if err := r.Check(t); err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
	}
	if s.wal != nil {
		//lint:lockscope journaled mutation: the WAL entry and the head apply must commit atomically under the writer lock
		if _, err := s.wal.Append(durable.Entry{Type: typ, Relation: relation, Tuples: tuples}, false); err != nil {
			return 0, fmt.Errorf("core: journal: %w", err)
		}
	}
	var n int
	var err error
	if typ == durable.EntryInsert {
		n, err = r.InsertBatch(tuples)
	} else {
		n, err = r.DeleteBatch(tuples)
	}
	if err != nil {
		return n, err // unreachable: the batch was validated above
	}
	if s.wal != nil {
		// Re-read rather than increment: a no-op batch (all duplicates)
		// does not advance the relation's generation.
		s.walGen = s.store.Head().MutationGen()
	}
	s.epoch++
	if n > 0 {
		// Delta-aware invalidation: only entries reading this relation
		// turn over; everything else stays warm. A no-op batch (all
		// duplicates / absent tuples) changes nothing and evicts nothing.
		s.relEpochs[relation] = s.epoch
		s.relGens[relation] = r.Generation()
		s.gen.InvalidateTouched([]string{relation})
	}
	return n, nil
}

// SetPolicyNamed installs one of the named default policies
// (PolicyByName) and — unlike the deprecated SetPolicy, whose arbitrary
// function values cannot be serialized — journals the change, so a
// recovered system wakes up with the same default policy. It bumps both
// Version() and ConfigVersion(), exactly like SetPolicy.
func (s *System) SetPolicyNamed(name string) error {
	p, ok := PolicyByName(name)
	if !ok {
		return fmt.Errorf("core: unknown policy %q (want minsize, maxcoverage or all)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return fmt.Errorf("core: system was opened read-only")
	}
	if s.wal != nil {
		//lint:lockscope journaled mutation: the policy record and the in-memory policy must flip atomically under the writer lock
		if _, err := s.wal.Append(durable.Entry{Type: durable.EntrySetPolicy, Policy: name}, true); err != nil {
			return fmt.Errorf("core: journal: %w", err)
		}
	}
	s.epoch++
	s.cfg++
	s.gen.SetPolicy(p)
	// Semantic change: full flush, like SetPolicy (DESIGN.md §3).
	s.gen.InvalidateCache()
	s.polName = name
	return nil
}
