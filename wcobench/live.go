package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	wcoring "repro"
	"repro/internal/ltj"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wgpb"
)

// The serve-live workload: the same server over persist.Open on a fresh
// data directory, seeded with a WGPB graph through InsertBatch, with
// background compaction and checkpoints at their defaults. One
// connection sends open-loop sync /insert and /delete batches at a fixed
// rate, some of whose deletes reach triples long flushed into rings; the
// other sends open-loop reads of the serve-read kinds plus
// reads of written subjects, at a fixed rate below what it sustains, so
// every run does the same work. Written triples use terms ("w…") the base
// graph never contains, so base reads keep an exact oracle.

const (
	liveWriteRate   = 20  // mutation requests per second, alternating insert and delete
	liveReadRate    = 60  // read requests per second, about a third of what one connection sustains closed-loop
	liveSubjects    = 20  // subjects per insert batch
	liveTriplesPer  = 10  // triples per written subject
	liveDeleteLag   = 1   // a delete removes subjects of the insert this many inserts back
	liveDeleted     = 1   // subjects 0..liveDeleted-1 of each insert batch are deleted again
	liveWrittenRead = 0.1 // share of reads that target written subjects
	seedChunk       = 10000
)

// Every liveOldEvery-th delete also removes the first liveOldTriples
// triples of subject liveOldSubject of the insert liveOldLag inserts
// back: 5 s before, flushed from the memtable into a ring (a flush comes
// every ~2 s at this write rate), so the delete rebuilds the ring that
// holds each of them. Reads of written subjects reach twice as far back.
const (
	liveOldEvery   = 20
	liveOldLag     = 50
	liveOldSubject = liveSubjects - 1
	liveOldTriples = 1
	liveReadBack   = 2 * liveOldLag
)

// A delete request is named by the insert batch k whose subjects
// 0..liveDeleted-1 it removes; oldVictim says which earlier batch's
// subject liveOldSubject it also reaches.
func oldVictim(k int) (int, bool) {
	if k%liveOldEvery != liveOldEvery-1 || k < liveOldLag {
		return 0, false
	}
	return k - liveOldLag, true
}

// deletion names the delete request that removes triples of subject j
// of insert batch k, and how many of its triples, the first n, it
// removes.
func deletion(k, j int) (d, n int, ok bool) {
	if j < liveDeleted {
		return k, liveTriplesPer, true
	}
	if _, old := oldVictim(k + liveOldLag); old && j == liveOldSubject {
		return k + liveOldLag, liveOldTriples, true
	}
	return 0, 0, false
}

func liveTriples(cfg config) int {
	if cfg.short {
		return 5000
	}
	return 100000
}

func writtenSubject(k, j int) string { return "w" + strconv.Itoa(k) + "s" + strconv.Itoa(j) }

// writtenTriples are the triples of subject j of insert batch k.
func writtenTriples(k, j int) []server.TripleJSON {
	out := make([]server.TripleJSON, liveTriplesPer)
	for t := range out {
		out[t] = server.TripleJSON{S: writtenSubject(k, j), P: "wp" + strconv.Itoa(t%4),
			O: "w" + strconv.Itoa(k) + "o" + strconv.Itoa(j) + "_" + strconv.Itoa(t)}
	}
	return out
}

// writeState tracks the writer's progress. Inserts and deletes are each
// sent in batch order on one connection, so prefix counters describe
// every batch's state: insert k is acknowledged iff k < insAcked, delete
// request d (see deletion) iff d < delAcked, and so on.
type writeState struct {
	insAcked, delSent, delAcked atomic.Int64
	mu                          sync.Mutex
	failed                      map[int]bool // insert batches whose insert or delete failed: state unknown
}

func (w *writeState) isFailed(k int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed[k]
}

func (w *writeState) markFailed(k int) {
	w.mu.Lock()
	w.failed[k] = true
	w.mu.Unlock()
}

// writtenRead builds a read of a written subject whose expected answer
// is the acknowledged state: its triples while their delete is unsent,
// the triples the delete leaves once it is acknowledged, either in
// between.
func writtenRead(ws *writeState, rng *rand.Rand, rywMiss *atomic.Int64) *request {
	acked := int(ws.insAcked.Load())
	k := acked - 1 - rng.Intn(min(acked, liveReadBack))
	j := rng.Intn(liveSubjects)
	if ws.isFailed(k) {
		return nil
	}
	d, n, deletable := deletion(k, j)
	delAckedBefore := deletable && d < int(ws.delAcked.Load())
	subj := writtenSubject(k, j)
	q := []server.PatternJSON{{S: subj, P: "?p", O: "?o"}}
	body, _ := json.Marshal(server.QueryRequest{Pattern: q, Limit: 1000})
	before, after := map[string]bool{}, map[string]bool{}
	for i, t := range writtenTriples(k, j) {
		before[t.P+"\x00"+t.O] = true
		if !deletable || i >= n {
			after[t.P+"\x00"+t.O] = true
		}
	}
	return &request{kind: "written", body: body, check: func(rows []map[string]string) error {
		unsent := !deletable || d >= int(ws.delSent.Load())
		var err error
		switch {
		case unsent:
			err = matchWritten(rows, before)
		case delAckedBefore:
			err = matchWritten(rows, after)
		default: // the delete was in flight
			if matchWritten(rows, before) != nil {
				err = matchWritten(rows, after)
			}
		}
		if err != nil {
			rywMiss.Add(1)
			return fmt.Errorf("read of written subject %s: %v", subj, err)
		}
		return nil
	}}
}

// matchWritten accepts rows equal to the triple set want.
func matchWritten(rows []map[string]string, want map[string]bool) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, acknowledged state has %d", len(rows), len(want))
	}
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		k := r["p"] + "\x00" + r["o"]
		if !want[k] || seen[k] {
			return fmt.Errorf("row %v is not in the acknowledged state or repeats", r)
		}
		seen[k] = true
	}
	return nil
}

type liveServer struct {
	dir string
	db  *persist.DB
	hs  *httpServer
}

func (l *liveServer) close() error {
	if l.hs != nil {
		l.hs.stop()
	}
	var err error
	if l.db != nil {
		err = l.db.Close()
	}
	os.RemoveAll(l.dir)
	return err
}

// setupLive opens a fresh data directory, seeds it through InsertBatch,
// checkpoints, and serves it until the first answer.
func setupLive(cfg config, seed []wcoring.StringTriple, client *http.Client, t *setupTimer) (*liveServer, error) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "serve-live-")
	if err != nil {
		return nil, err
	}
	l := &liveServer{dir: dir}
	err = t.time(func() error {
		var err error
		if l.db, err = persist.Open(dir, persist.Options{}); err != nil {
			return err
		}
		for i := 0; i < len(seed); i += seedChunk {
			if _, err := l.db.InsertBatch(seed[i:min(len(seed), i+seedChunk)], true); err != nil {
				return fmt.Errorf("seeding: %w", err)
			}
		}
		if err := l.db.Checkpoint(); err != nil {
			return err
		}
		srv, err := server.New(server.Config{AccessLog: io.Discard})
		if err == nil {
			err = srv.SetLive(l.db)
		}
		if err == nil {
			l.hs, err = startHTTP(srv.Handler())
		}
		if err == nil {
			err = firstAnswer(client, l.hs.url, probeBody)
		}
		return err
	})
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// writeRec accumulates the writer's observations.
type writeRec struct {
	lat, late, mutateMS samples
	attempted, failed   int
	triples             int
	wrong               []string
}

func runServeLive(cfg config) (*result, error) {
	g := wgpb.Generate(wgpb.DefaultGraphConfig(liveTriples(cfg)))
	pool, dropped, err := buildPool(g, cfg.seed, servePoolSizes(cfg), false, true)
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty query pool")
	}
	seed := stringTriples(g)

	readClient, writeClient := newClient(1), newClient(1)
	defer closeClient(readClient)
	defer closeClient(writeClient)
	setup := &setupTimer{}
	var l *liveServer
	for i := 0; i < setupRepeats; i++ {
		if l != nil {
			if err := l.close(); err != nil {
				return nil, err
			}
			closeClient(readClient)
		}
		var err error
		if l, err = setupLive(cfg, seed, readClient, setup); err != nil {
			return nil, err
		}
	}
	defer l.close()

	ws := &writeState{failed: map[int]bool{}}
	var rywMiss atomic.Int64
	v := newVerifier(g)
	z := newZipf(pool, 0, rand.New(rand.NewSource(cfg.seed)))
	runtime.GC()
	st0 := l.db.Stats()
	var wrec writeRec
	var rings, memtable, installMS samples
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		wrec = writeLoop(l.hs.url, writeClient, ws, cfg.seconds)
	}()
	go func() {
		defer wg.Done()
		lastCP := st0.Checkpoints
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s := l.db.Stats()
				rings = append(rings, float64(s.StaticRings))
				memtable = append(memtable, float64(s.MemtableTriples))
				if s.Checkpoints != lastCP {
					lastCP = s.Checkpoints
					installMS = append(installMS, s.LastInstallSeconds*1000)
				}
			}
		}
	}()
	p0 := readProc()
	rec := &readRec{start: time.Now()}
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 1))
	openLoop(liveReadRate, cfg.seconds, func(_ int, due time.Time) {
		r := pool[z.draw(rng)]
		if ws.insAcked.Load() > 0 && rng.Float64() < liveWrittenRead {
			if w := writtenRead(ws, rng, &rywMiss); w != nil {
				r = w
			}
		}
		readOnce(readClient, l.hs.url, r, v, rec, due)
	})
	wall := time.Since(rec.start)
	p1 := readProc()
	close(stop)
	wg.Wait()
	st1 := l.db.Stats()

	res := &result{dropped: dropped, attempted: rec.attempted + wrec.attempted,
		failed: rec.failed + wrec.failed, wrong: append(rec.wrong, wrec.wrong...)}
	res.metrics = append(res.metrics, readMetrics(rec, wall)...)
	res.metrics = append(res.metrics, procMetrics(p0, p1, rec.attempted+wrec.attempted)...)
	res.metrics = append(res.metrics, setup.metrics()...)
	res.metrics = append(res.metrics, serverCPU(p0, p1, rec)...)

	// A final checkpoint moves everything into rings; then measure.
	if err := l.db.Checkpoint(); err != nil {
		return nil, err
	}
	snap := l.db.Snapshot()
	ringBytes := 0
	for _, r := range snap.Rings() {
		ringBytes += r.SizeBytes()
	}
	disk, err := dirBytes(l.dir)
	if err != nil {
		return nil, err
	}
	live := l.db.Len()

	// Reopen and verify every acknowledged insert and delete.
	l.hs.stop()
	l.hs = nil
	if err := l.db.Close(); err != nil {
		return nil, fmt.Errorf("closing the data directory: %w", err)
	}
	l.db = nil
	lost, err := verifyReopen(l.dir, g.Len(), ws, res)
	if err != nil {
		return nil, err
	}

	writeErrors := wrec.failed + lost + int(rywMiss.Load())
	res.failed += lost
	res.metrics = append(res.metrics,
		scalar("bytes_per_triple", "B", ratio(float64(ringBytes), float64(snap.Len()))),
		scalar("disk_bytes_per_triple", "B", ratio(float64(disk), float64(live))),
		wrec.lat.at("write_p50_ms", "ms", 0.5),
		wrec.lat.at("write_p99_ms", "ms", 0.99),
		scalar("write_error_rate", "ratio", ratio(float64(writeErrors), float64(wrec.attempted))),
		wrec.mutateMS.at("persist.mutate_ms_p50", "ms", 0.5),
		wrec.mutateMS.at("persist.mutate_ms_p99", "ms", 0.99),
		scalar("persist.fsyncs_per_batch", "count", ratio(float64(st1.WAL.Fsyncs-st0.WAL.Fsyncs), float64(st1.WAL.AppendedBatches-st0.WAL.AppendedBatches))),
		scalar("persist.wal_bytes_per_triple", "B", ratio(float64(st1.WAL.AppendedBytes-st0.WAL.AppendedBytes), float64(wrec.triples))),
		scalar("persist.checkpoints", "count", float64(st1.Checkpoints-st0.Checkpoints)),
		installMS.at("persist.checkpoint_install_ms", "ms", 0.5),
		scalar("dynamic.compactions", "count", float64(st1.Compactions-st0.Compactions)),
		scalar("dynamic.static_rings_mean", "count", rings.mean()),
		scalar("dynamic.memtable_triples_mean", "count", memtable.mean()),
		wrec.late.at("loadgen.write_late_ms_p99", "ms", 0.99),
	)
	if cfg.trace {
		db, err := persist.Open(l.dir, persist.Options{})
		if err != nil {
			return nil, err
		}
		defer db.Close()
		snap := db.Snapshot()
		rp := replay(res, g, missedInPoolOrder(pool, rec.missed), db.Compile, db.DecodeBinding,
			func() ltj.Index { return snap })
		res.metrics = append(res.metrics, rp.metrics...)
		if rs := snap.Rings(); len(rs) > 0 {
			biggest := rs[0]
			for _, r := range rs {
				if r.Len() > biggest.Len() {
					biggest = r
				}
			}
			rng := rand.New(rand.NewSource(cfg.seed))
			res.metrics = append(res.metrics, probeWavelet("wavelet.", biggest, rp.predConsts, rng, probeOps(cfg), true)...)
		}
	}
	res.metrics = append(res.metrics, scalar("peak_rss_mb", "MB", peakRSSMB()))
	return res, nil
}

// openLoop calls send for request t when it is due, at start + t/rate,
// until d has passed. send runs on the caller's goroutine (one
// connection), so a slow request delays the ones behind it; callers time
// each request from its due time, which charges that wait.
func openLoop(rate int, d time.Duration, send func(t int, due time.Time)) {
	start := time.Now()
	interval := time.Second / time.Duration(rate)
	for t := 0; ; t++ {
		due := start.Add(time.Duration(t) * interval)
		if !due.Before(start.Add(d)) {
			return
		}
		time.Sleep(time.Until(due))
		send(t, due)
	}
}

// deleteRequest returns the triples delete request k removes (see
// deletion), leaving out an old victim whose insert failed.
func deleteRequest(k int, failed func(int) bool) []server.TripleJSON {
	var triples []server.TripleJSON
	for j := 0; j < liveDeleted; j++ {
		triples = append(triples, writtenTriples(k, j)...)
	}
	if v, ok := oldVictim(k); ok && !failed(v) {
		triples = append(triples, writtenTriples(v, liveOldSubject)[:liveOldTriples]...)
	}
	return triples
}

// writeLoop sends the mutation stream open-loop: inserts of fresh
// subjects alternating with deletes of subjects of the previous insert
// and, now and then, of one inserted seconds before.
func writeLoop(url string, c *http.Client, ws *writeState, d time.Duration) writeRec {
	var rec writeRec
	openLoop(liveWriteRate, d, func(t int, due time.Time) {
		k, op := t/2, "insert"
		var triples []server.TripleJSON
		if t%2 == 1 {
			k, op = t/2-liveDeleteLag, "delete"
			if k < 0 {
				return
			}
			triples = deleteRequest(k, ws.isFailed)
			ws.delSent.Store(int64(k + 1))
		} else {
			for j := 0; j < liveSubjects; j++ {
				triples = append(triples, writtenTriples(k, j)...)
			}
		}
		rec.late = append(rec.late, ms(time.Since(due)))
		body, _ := json.Marshal(server.MutationRequest{Triples: triples})
		rec.attempted++
		rec.triples += len(triples)
		code, b, err := post(c, url+"/"+op, body)
		lat := time.Since(due)
		var mr server.MutationResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(b, &mr)
		}
		if err == nil && code == http.StatusOK && mr.Applied != len(triples) {
			err = fmt.Errorf("applied %d of %d", mr.Applied, len(triples))
			if len(rec.wrong) < maxWrong {
				rec.wrong = append(rec.wrong, fmt.Sprintf("%s batch %d: %v", op, k, err))
			}
		}
		if err != nil || code != http.StatusOK {
			rec.failed++
			ws.markFailed(k)
			if v, ok := oldVictim(k); ok && op == "delete" {
				ws.markFailed(v)
			}
		} else {
			rec.lat = append(rec.lat, ms(lat))
			rec.mutateMS = append(rec.mutateMS, mr.ElapsedMS)
		}
		if op == "insert" {
			ws.insAcked.Store(int64(k + 1))
		} else {
			ws.delAcked.Store(int64(k + 1))
		}
	})
	return rec
}

// verifyReopen reopens the data directory and checks every acknowledged
// write: inserted triples present unless an acknowledged delete removed
// them, and the total equal to the base graph plus the net writes. It
// returns the number of acknowledged writes that did not survive.
func verifyReopen(dir string, base int, ws *writeState, res *result) (int, error) {
	db, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, fmt.Errorf("reopening the data directory: %w", err)
	}
	defer db.Close()
	snap := db.Snapshot()
	contains := func(t server.TripleJSON) bool {
		enc, _, feasible, err := db.Compile([]wcoring.PatternString{{S: t.S, P: t.P, O: t.O}})
		if err != nil || !feasible {
			return false
		}
		return !snap.NewPatternIter(enc[0]).Empty()
	}
	lost := 0
	want := base
	ins, del := int(ws.insAcked.Load()), int(ws.delAcked.Load())
	for k := 0; k < ins; k++ {
		if ws.isFailed(k) {
			continue
		}
		batchLost := false
		for j := 0; j < liveSubjects; j++ {
			d, n, ok := deletion(k, j)
			for i, t := range writtenTriples(k, j) {
				deleted := ok && d < del && i < n
				if contains(t) == deleted {
					batchLost = true
				}
				if !deleted {
					want++
				}
			}
		}
		if batchLost {
			lost++
			res.fail("after reopen, insert batch %d (delete acknowledged: %v) is not in its acknowledged state", k, k < del)
		}
	}
	res.attempted++
	if len(ws.failed) == 0 && db.Len() != want {
		lost++
		res.fail("after reopen, %d triples, acknowledged writes give %d", db.Len(), want)
	}
	return lost, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
