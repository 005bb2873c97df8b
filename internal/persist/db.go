package persist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wcoring "repro"
	"repro/internal/dict"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/mman"
	"repro/internal/ring"
)

// Options configures a DB.
type Options struct {
	// MemtableThreshold and MaxRings bound the dynamic store (zero means
	// its defaults).
	MemtableThreshold int
	MaxRings          int
	// Ring configures the physical representation of checkpointed rings.
	Ring ring.Options
	// NoBackground disables the compaction goroutine and automatic
	// checkpoints; flushes happen inline on the writer and checkpoints
	// only when Checkpoint is called. Tests use this for determinism.
	NoBackground bool
	// Mmap loads checkpointed ring files through read-only memory
	// mappings (ring.View) instead of decoding them onto the heap, both
	// at Open and when a checkpoint installs freshly written files. Load
	// cost drops to rebuilding the o(n) rank/select directories and the
	// bulk payload stays in the page cache, shared across processes.
	Mmap bool
}

// DB is a durable dynamic store: a write-ahead log in front of a
// dictionary plus dynamic ring store, checkpointed into immutable
// snapshot files behind a versioned manifest. One writer at a time;
// readers pin epoch snapshots and never block.
type DB struct {
	dir string
	opt Options

	// wmu serialises writers: WAL enqueue order equals apply order.
	wmu    sync.Mutex
	closed bool //ringlint:guarded-by wmu

	// dictMu guards the growing dictionary (writers hold it briefly to
	// encode; readers to decode results).
	dictMu sync.RWMutex
	d      *dict.Dictionary //ringlint:guarded-by dictMu

	store *dynamic.Store
	wal   *wal

	// cpMu serialises checkpoints and guards the manifest bookkeeping.
	cpMu sync.Mutex
	man  *manifest //ringlint:guarded-by cpMu
	// ringFiles maps in-memory rings to their on-disk files, by pointer
	// identity: a merged or rebuilt ring is a new pointer and gets a new
	// file at the next checkpoint. Rebuilt from the manifest at Open;
	// never serialized itself.
	//ringlint:derived
	//ringlint:guarded-by cpMu
	ringFiles map[*ring.Ring]ringRef
	// regions maps view-loaded rings to their file mappings (Mmap mode
	// only), by pointer identity; guarded by cpMu. The entry keeps ring
	// and mapping alive together; once a ring leaves the map (its file
	// superseded), a finalizer set in viewRingFile releases the mapping
	// when the last snapshot lets go of the ring. Rebuilt at Open, never
	// serialized.
	//ringlint:derived
	//ringlint:guarded-by cpMu
	regions map[*ring.Ring]*mman.Region

	kickCh chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	// appliedSeq is the highest batch sequence applied to the in-memory
	// store (visibility watermark; durability is the WAL's lastDurable).
	// Consistent reads wait on it via WaitApplied.
	appliedSeq atomic.Uint64
	// seqMu guards the WaitApplied waiter list.
	seqMu      sync.Mutex
	seqWaiters []seqWaiter //ringlint:guarded-by seqMu

	checkpoints atomic.Uint64
	// lastInstallNanos is the duration of the last checkpoint's install
	// phase: mapping freshly written ring files, swapping them into the
	// store, and installing the manifest — everything after the O(new
	// data) file writes. With Mmap it stays O(directories), which is the
	// point of the zero-copy load path.
	lastInstallNanos atomic.Int64
	// Recovery observations, derived from replaying the WAL tail at Open —
	// pure reporting state, never written back to disk.
	//ringlint:derived
	recoveryBatches atomic.Uint64
	//ringlint:derived
	recoveryOps atomic.Uint64
	//ringlint:derived
	tornTail atomic.Bool
	cpErr    atomic.Pointer[error] // last background checkpoint failure
}

// Stats is a point-in-time snapshot of the persistence counters the
// serving layer exposes as metrics.
type Stats struct {
	Triples         int
	MemtableTriples int
	StaticRings     int
	DictSOTerms     int
	DictPTerms      int
	Generation      uint64
	Compactions     uint64
	Checkpoints     uint64
	ManifestVersion uint64
	// Mmap reports whether the zero-copy load path is active;
	// MappedRings/MappedBytes count the live file mappings, and
	// LastInstallSeconds is the duration of the last checkpoint's
	// install phase (map + swap + manifest, excluding file writes).
	Mmap               bool
	MappedRings        int
	MappedBytes        int64
	LastInstallSeconds float64
	WALFloor           uint64
	WALSegments        int
	WALSizeBytes       int64
	WAL                WALStats
	RecoveryBatches    uint64
	RecoveryOps        uint64
	RecoveryTorn       bool
	// AppliedSeq/DurableSeq are the replication watermarks: the highest
	// batch sequence visible in memory and the highest fsynced locally.
	AppliedSeq uint64
	DurableSeq uint64
	// SnapshotLastSeq is the manifest's LastSeq: the first batch a
	// follower bootstrapping from this snapshot needs is SnapshotLastSeq+1.
	SnapshotLastSeq uint64
}

// Open opens (or creates) the data directory: load the manifest's
// dictionary and ring snapshot, replay the WAL tail over it, truncate a
// torn tail if the crash left one, and start accepting writes. The
// returned DB serves queries immediately.
func Open(dir string, opt Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{
		dir:     dir,
		opt:     opt,
		regions: make(map[*ring.Ring]*mman.Region),
		kickCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	var rings []*ring.Ring
	var numSO, numP graph.ID
	if man != nil {
		if db.d, err = readDictFile(dir, man.Dict); err != nil {
			return nil, err
		}
		numSO, numP = db.d.NumSO(), db.d.NumP()
		if numSO < man.NumSO || numP < man.NumP {
			return nil, fmt.Errorf("%w: dictionary smaller than manifest domains", ErrCorrupt)
		}
		for _, ref := range man.Rings {
			var r *ring.Ring
			if opt.Mmap {
				var reg *mman.Region
				if r, reg, err = viewRingFile(dir, ref); err == nil {
					db.regions[r] = reg
				}
			} else {
				r, err = readRingFile(dir, ref)
			}
			if err != nil {
				return nil, err
			}
			rings = append(rings, r)
		}
	} else {
		db.d, _ = dict.Build(nil)
		man = &manifest{Version: 0, WALFloor: 1, NextRing: 1}
	}
	db.man = man

	db.store = dynamic.FromRings(rings, numSO, numP, dynamic.Options{
		MemtableThreshold: opt.MemtableThreshold,
		MaxRings:          opt.MaxRings,
		Ring:              opt.Ring,
		Background:        !opt.NoBackground,
		OnCompact:         db.kickCheckpoint,
	})
	db.ringFiles = make(map[*ring.Ring]ringRef, len(rings))
	for i, r := range rings {
		db.ringFiles[r] = man.Rings[i]
	}

	nextSeg, nextBatch, err := db.recover()
	if err != nil {
		db.store.Close()
		return nil, err
	}
	db.appliedSeq.Store(nextBatch - 1)
	if db.wal, err = openWAL(dir, nextSeg, nextBatch); err != nil {
		db.store.Close()
		return nil, err
	}
	db.gcLocked()

	if !opt.NoBackground {
		db.wg.Add(1)
		go db.checkpointLoop()
	}
	return db, nil
}

// recover replays every WAL segment at or above the manifest floor, in
// order, and reports the next segment and batch sequence numbers.
func (db *DB) recover() (nextSeg, nextBatch uint64, err error) {
	segs, err := listSegments(db.dir)
	if err != nil {
		return 0, 0, err
	}
	nextSeg = db.man.WALFloor //ringlint:allow guardedby -- recovery runs inside Open, before the DB is shared
	if nextSeg == 0 {
		nextSeg = 1
	}
	// The snapshot already covers batches up to the manifest's LastSeq;
	// sequences must stay monotonic across checkpoints (and across a
	// whole replica set), so numbering resumes there even when every
	// covered segment has been garbage-collected.
	nextBatch = db.man.LastSeq + 1 //ringlint:allow guardedby -- recovery runs inside Open, before the DB is shared
	live := segs[:0]
	for _, seq := range segs {
		if seq >= db.man.WALFloor { //ringlint:allow guardedby -- recovery runs inside Open, before the DB is shared
			live = append(live, seq)
		}
	}
	for i, seq := range live {
		if i > 0 && seq != live[i-1]+1 {
			return 0, 0, fmt.Errorf("%w: WAL gap between segments %d and %d", ErrCorrupt, live[i-1], seq)
		}
		last := i == len(live)-1
		res, err := replaySegment(db.dir, seq, last, func(b Batch) error {
			db.applyOps(b.Ops)
			db.recoveryBatches.Add(1)
			db.recoveryOps.Add(uint64(len(b.Ops)))
			if b.Seq >= nextBatch {
				nextBatch = b.Seq + 1
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		if res.Torn {
			db.tornTail.Store(true)
		}
		if res.Removed {
			// The active segment's header was torn and the file deleted;
			// reuse its number so the on-disk sequence stays gapless.
			nextSeg = seq
		} else {
			nextSeg = seq + 1
		}
	}
	return nextSeg, nextBatch, nil
}

func readDictFile(dir string, ref fileRef) (*dict.Dictionary, error) {
	f, err := os.Open(filepath.Join(dir, ref.Name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dict.Read(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ref.Name, err)
	}
	return d, nil
}

func readRingFile(dir string, ref ringRef) (*ring.Ring, error) {
	f, err := os.Open(filepath.Join(dir, ref.Name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ring.Read(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ref.Name, err)
	}
	if r.Len() != ref.Triples {
		return nil, fmt.Errorf("%w: %s holds %d triples, manifest says %d", ErrCorrupt, ref.Name, r.Len(), ref.Triples)
	}
	return r, nil
}

// viewRingFile maps a checkpointed ring file and view-loads it: the bulk
// word payloads alias the mapping, only the rank/select directories are
// rebuilt. The mapping's lifetime is tied to the ring with a finalizer,
// so a query or pinned snapshot still iterating the ring after a
// generation swap keeps the pages mapped until it lets go — the
// refcounted unmap the live path relies on.
func viewRingFile(dir string, ref ringRef) (*ring.Ring, *mman.Region, error) {
	reg, err := mman.Map(filepath.Join(dir, ref.Name))
	if err != nil {
		return nil, nil, err
	}
	r, _, err := ring.View(reg.Bytes())
	if err != nil {
		reg.Release()
		return nil, nil, fmt.Errorf("%s: %w", ref.Name, err)
	}
	if r.Len() != ref.Triples {
		reg.Release()
		return nil, nil, fmt.Errorf("%w: %s holds %d triples, manifest says %d", ErrCorrupt, ref.Name, r.Len(), ref.Triples)
	}
	runtime.SetFinalizer(r, func(*ring.Ring) { reg.Release() })
	return r, reg, nil
}

// Close checkpoints, seals the WAL, and stops the background work. A
// closed DB keeps serving reads from its last snapshot.
func (db *DB) Close() error {
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return nil
	}
	db.closed = true
	db.wmu.Unlock()
	close(db.done)
	db.wg.Wait()
	err := db.checkpoint()
	if werr := db.wal.Close(); err == nil {
		err = werr
	}
	db.store.Close()
	return err
}

// --- writes ---

// InsertBatch logs and applies triples. With sync it returns only after
// the batch's WAL record is fsynced (the durable acknowledgement);
// without, the batch is applied and queued — a crash may lose it, which
// the caller accepted by not asking for sync. Returns how many triples
// were actually new.
func (db *DB) InsertBatch(ts []dict.StringTriple, sync bool) (int, error) {
	applied, _, err := db.Mutate(OpInsert, ts, sync)
	return applied, err
}

// DeleteBatch logs and removes triples; absent triples are no-ops. See
// InsertBatch for the sync contract. Returns how many were removed.
func (db *DB) DeleteBatch(ts []dict.StringTriple, sync bool) (int, error) {
	applied, _, err := db.Mutate(OpDelete, ts, sync)
	return applied, err
}

// Mutate is the seq-reporting mutation entry point: like
// InsertBatch/DeleteBatch, but it also returns the batch's WAL sequence
// number. A client holding the seq can demand read-your-writes on any
// replica ("wait until you have applied ≥ seq"); the seq is assigned at
// enqueue, so it is valid for 202-queued batches too.
func (db *DB) Mutate(kind OpKind, ts []dict.StringTriple, sync bool) (int, uint64, error) {
	if len(ts) == 0 {
		return 0, db.appliedSeq.Load(), nil
	}
	ops := make([]Op, len(ts))
	for i, t := range ts {
		ops[i] = Op{Kind: kind, S: t.S, P: t.P, O: t.O}
	}
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return 0, 0, ErrClosed
	}
	// Enqueue before applying: WAL order equals apply order, and the ops
	// become visible to readers while the fsync is still in flight —
	// acknowledgement, not visibility, waits for durability.
	promise, err := db.wal.enqueue(ops, 0)
	if err != nil {
		db.wmu.Unlock()
		return 0, 0, err
	}
	applied := db.applyOps(ops)
	db.advanceApplied(promise.seq)
	db.wmu.Unlock()
	if sync {
		if err := promise.wait(); err != nil {
			return applied, promise.seq, err
		}
	}
	return applied, promise.seq, nil
}

// seqWaiter is one parked WaitApplied call.
type seqWaiter struct {
	seq uint64
	ch  chan struct{}
}

// advanceApplied publishes a new applied watermark and releases every
// waiter it satisfies. Caller holds wmu (the apply path), so watermarks
// move monotonically.
func (db *DB) advanceApplied(seq uint64) {
	db.appliedSeq.Store(seq)
	db.seqMu.Lock()
	if len(db.seqWaiters) > 0 {
		kept := db.seqWaiters[:0]
		for _, w := range db.seqWaiters {
			if w.seq <= seq {
				close(w.ch)
			} else {
				kept = append(kept, w)
			}
		}
		db.seqWaiters = kept
	}
	db.seqMu.Unlock()
}

// AppliedSeq returns the highest batch sequence applied to the
// in-memory store — the visibility watermark consistent reads compare
// against.
func (db *DB) AppliedSeq() uint64 { return db.appliedSeq.Load() }

// DurableSeq returns the highest batch sequence whose WAL record is
// fsynced locally.
func (db *DB) DurableSeq() uint64 { return db.wal.lastDurable.Load() }

// NextSeq returns the next batch sequence the log will assign — the
// resume point for a replication tail.
func (db *DB) NextSeq() uint64 { return db.wal.nextSeq() }

// WaitApplied blocks until the applied watermark reaches seq or ctx
// ends. It is the server side of "X-Ring-Min-Seq: N": bounded
// generation/sequence-consistent reads on any replica.
func (db *DB) WaitApplied(ctx context.Context, seq uint64) error {
	if db.appliedSeq.Load() >= seq {
		return nil
	}
	w := seqWaiter{seq: seq, ch: make(chan struct{})}
	db.seqMu.Lock()
	// Re-check under the lock: advanceApplied may have passed seq
	// between the fast path and registration.
	if db.appliedSeq.Load() >= seq {
		db.seqMu.Unlock()
		return nil
	}
	db.seqWaiters = append(db.seqWaiters, w)
	db.seqMu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		db.seqMu.Lock()
		for i := range db.seqWaiters {
			if db.seqWaiters[i].ch == w.ch {
				db.seqWaiters = append(db.seqWaiters[:i], db.seqWaiters[i+1:]...)
				break
			}
		}
		db.seqMu.Unlock()
		return ctx.Err()
	}
}

// applyOps encodes a WAL record's ops and applies them, in order, as one
// dynamic.Store batch, so readers see the whole record or none of it.
// Caller holds wmu (or is single-threaded recovery). Returns the number
// of triples whose presence actually changed.
func (db *DB) applyOps(ops []Op) int {
	ms := make([]dynamic.Mutation, 0, len(ops))
	db.dictMu.Lock()
	for _, op := range ops {
		if op.Kind == OpInsert {
			ms = append(ms, dynamic.Mutation{T: graph.Triple{
				S: db.d.AddSO(op.S), P: db.d.AddP(op.P), O: db.d.AddSO(op.O),
			}})
			continue
		}
		s, ok1 := db.d.EncodeSO(op.S)
		p, ok2 := db.d.EncodeP(op.P)
		o, ok3 := db.d.EncodeSO(op.O)
		if ok1 && ok2 && ok3 { // a term never seen cannot be stored
			ms = append(ms, dynamic.Mutation{T: graph.Triple{S: s, P: p, O: o}, Delete: true})
		}
	}
	db.dictMu.Unlock()
	inserted, deleted := db.store.Apply(ms)
	return inserted + deleted
}

// --- checkpoint ---

func (db *DB) kickCheckpoint() {
	select {
	case db.kickCh <- struct{}{}:
	default:
	}
}

func (db *DB) checkpointLoop() {
	defer db.wg.Done()
	for {
		select {
		case <-db.done:
			return
		case <-db.kickCh:
			if err := db.checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				db.cpErr.Store(&err)
			}
		}
	}
}

// Checkpoint forces a snapshot: rotate the WAL, flush the memtable into
// rings, persist new ring and dictionary files, and atomically install
// the next manifest version. Obsolete WAL segments and snapshot files
// are removed afterwards.
func (db *DB) Checkpoint() error {
	db.wmu.Lock()
	closed := db.closed
	db.wmu.Unlock()
	if closed {
		return ErrClosed
	}
	return db.checkpoint()
}

func (db *DB) checkpoint() error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()

	// Seal the log and drain the memtable under the writer lock: every
	// op in segments < floor is now represented in the store's rings.
	db.wmu.Lock()
	rot, err := db.wal.rotate()
	if err != nil {
		db.wmu.Unlock()
		return err
	}
	db.store.FlushNow()
	snap := db.store.Snapshot()
	var dictBuf bytes.Buffer
	db.dictMu.RLock()
	_, derr := db.d.WriteTo(&dictBuf)
	numSO, numP := db.d.NumSO(), db.d.NumP()
	db.dictMu.RUnlock()
	db.wmu.Unlock()
	if derr != nil {
		return derr
	}

	version := db.man.Version + 1
	nextRing := db.man.NextRing
	newRefs := make([]ringRef, 0, len(snap.Rings()))
	newFiles := make(map[*ring.Ring]ringRef, len(snap.Rings()))
	type writtenRing struct {
		r   *ring.Ring
		ref ringRef
	}
	var written []writtenRing
	for _, r := range snap.Rings() {
		if ref, ok := db.ringFiles[r]; ok {
			newRefs = append(newRefs, ref)
			newFiles[r] = ref
			continue
		}
		name := ringFileName(nextRing)
		nextRing++
		n, err := writeFileSync(filepath.Join(db.dir, name), r.WriteTo)
		if err != nil {
			return err
		}
		ref := ringRef{Name: name, Triples: r.Len(), Bytes: n}
		newRefs = append(newRefs, ref)
		newFiles[r] = ref
		written = append(written, writtenRing{r: r, ref: ref})
	}
	dictName := dictFileName(version)
	dictBytes, err := writeFileSync(filepath.Join(db.dir, dictName), func(w io.Writer) (int64, error) {
		n, err := w.Write(dictBuf.Bytes())
		return int64(n), err
	})
	if err != nil {
		return err
	}

	// Install phase: everything after the O(new data) file writes. In
	// Mmap mode each freshly written ring file is mapped and view-loaded
	// — no re-decode, only directory rebuilds — and swapped in for its
	// heap-built twin, so the heap copy becomes collectable as soon as
	// the last pinned snapshot drops it.
	installStart := time.Now()
	if db.opt.Mmap {
		for _, wr := range written {
			mr, reg, err := viewRingFile(db.dir, wr.ref)
			if err != nil {
				// The heap ring keeps serving; the mapping is only an
				// optimization. The manifest still references the file.
				continue
			}
			if db.store.ReplaceRing(wr.r, mr) {
				delete(newFiles, wr.r)
				newFiles[mr] = wr.ref
				db.regions[mr] = reg
			}
			// Otherwise the ring was merged away while we wrote; the
			// dropped mapped ring's finalizer releases the mapping.
		}
	}
	m := &manifest{
		Version:    version,
		Generation: snap.Generation(),
		WALFloor:   rot.Sealed + 1,
		LastSeq:    rot.LastSeq,
		NextRing:   nextRing,
		NumSO:      numSO,
		NumP:       numP,
		Triples:    snap.Len(),
		Dict:       fileRef{Name: dictName, Bytes: dictBytes},
		Rings:      newRefs,
	}
	if err := m.install(db.dir); err != nil {
		return err
	}
	db.man = m
	db.ringFiles = newFiles
	for r := range db.regions {
		if _, ok := newFiles[r]; !ok {
			// The ring left the store; dropping the map entry lets the
			// GC collect ring + mapping once readers are done.
			delete(db.regions, r)
		}
	}
	db.lastInstallNanos.Store(int64(time.Since(installStart)))
	db.checkpoints.Add(1)
	db.gcLocked()
	return nil
}

// gcLocked removes WAL segments below the floor and snapshot files the
// current manifest does not reference. Caller holds cpMu (or is inside
// Open before concurrency starts). Removal failures are ignored: garbage
// is retried at the next checkpoint and never compromises correctness.
func (db *DB) gcLocked() {
	keep := map[string]bool{db.man.Dict.Name: true}
	for _, r := range db.man.Rings {
		keep[r.Name] = true
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := segmentSeq(name); ok {
			if seq < db.man.WALFloor {
				os.Remove(filepath.Join(db.dir, name))
			}
			continue
		}
		obsoleteSnap := (strings.HasPrefix(name, "ring-") || strings.HasPrefix(name, "dict-")) && !keep[name]
		if obsoleteSnap || name == manifestName+".tmp" {
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

// writeFileSync writes a new immutable file and fsyncs it before
// returning; the manifest may only reference files that went through
// here.
func writeFileSync(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// --- reads ---

// Snapshot pins the current epoch for lock-free reading.
func (db *DB) Snapshot() *dynamic.Snapshot { return db.store.Snapshot() }

// Generation returns the store's current epoch; it advances on every
// applied batch and compaction, so it keys result-cache invalidation.
func (db *DB) Generation() uint64 { return db.store.Generation() }

// Len returns the number of triples currently visible.
func (db *DB) Len() int { return db.store.Len() }

// Compile translates string patterns against the live dictionary. A
// constant the dictionary has never seen makes the query infeasible
// (matches nothing), reported via the third return.
func (db *DB) Compile(q []wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error) {
	db.dictMu.RLock()
	defer db.dictMu.RUnlock()
	return wcoring.CompilePatterns(db.d, q)
}

// DecodeBinding renders a solution back to strings from one term-table
// snapshot (see Terms).
func (db *DB) DecodeBinding(b graph.Binding, predVars map[string]bool) map[string]string {
	return db.Terms().DecodeBinding(b, predVars)
}

// Terms snapshots the dictionary's term tables under one brief read
// lock. The tables are append-only, so the snapshot decodes every ID
// visible in any store snapshot pinned before the call, and decoding
// from it never blocks a writer.
func (db *DB) Terms() dict.Terms {
	db.dictMu.RLock()
	defer db.dictMu.RUnlock()
	return db.d.Terms()
}

// CheckpointError returns the last background checkpoint failure, if
// any. Writes keep succeeding after one (durability is the WAL's job);
// operators should still alarm on it.
func (db *DB) CheckpointError() error {
	if p := db.cpErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats snapshots the persistence counters.
func (db *DB) Stats() Stats {
	db.dictMu.RLock()
	dso, dp := int(db.d.NumSO()), int(db.d.NumP())
	db.dictMu.RUnlock()
	db.cpMu.Lock()
	version := db.man.Version
	floor := db.man.WALFloor
	snapLastSeq := db.man.LastSeq
	mappedRings := len(db.regions)
	var mappedBytes int64
	for _, reg := range db.regions {
		mappedBytes += int64(reg.Len())
	}
	db.cpMu.Unlock()
	segs, _ := listSegments(db.dir)
	var segBytes int64
	for _, seq := range segs {
		if fi, err := os.Stat(filepath.Join(db.dir, segmentName(seq))); err == nil {
			segBytes += fi.Size()
		}
	}
	snap := db.store.Snapshot()
	return Stats{
		Triples:         snap.Len(),
		MemtableTriples: snap.MemtableLen(),
		StaticRings:     len(snap.Rings()),
		DictSOTerms:     dso,
		DictPTerms:      dp,
		Generation:      snap.Generation(),
		Compactions:     db.store.Compactions(),
		Checkpoints:     db.checkpoints.Load(),
		ManifestVersion: version,
		WALFloor:        floor,
		WALSegments:     len(segs),
		WALSizeBytes:    segBytes,
		WAL:             db.wal.stats(),
		AppliedSeq:      db.appliedSeq.Load(),
		DurableSeq:      db.wal.lastDurable.Load(),
		SnapshotLastSeq: snapLastSeq,
		RecoveryBatches: db.recoveryBatches.Load(),
		RecoveryOps:     db.recoveryOps.Load(),
		RecoveryTorn:    db.tornTail.Load(),

		Mmap:               db.opt.Mmap,
		MappedRings:        mappedRings,
		MappedBytes:        mappedBytes,
		LastInstallSeconds: time.Duration(db.lastInstallNanos.Load()).Seconds(),
	}
}
