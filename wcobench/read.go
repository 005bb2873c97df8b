package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	wcoring "repro"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wgpb"
)

// The serve-read workload: a static Store built from the engine
// workload's graph with string terms, written to a file beforehand and
// loaded the way `ringserve -index` loads it, then two closed-loop
// clients POST /query against the default server configuration. Queries
// are drawn with Zipf popularity from a pool larger than the 256-entry
// result cache, so both the hit and the miss path carry weight.

const (
	readClients = 2
	// zipfS is the popularity skew of the read mix, chosen so the result
	// cache's hit ratio lands between about 0.3 and 0.7.
	zipfS = 0.6
)

// probeBody is the set-up's first query: uncached, so it leaves the
// result cache as it found it.
var probeBody = []byte(`{"pattern":[{"s":"?s","p":"?p","o":"?o"}],"limit":1,"no_cache":true}`)

func runServeRead(cfg config) (*result, error) {
	triples, _ := engineSizes(cfg)
	g := wgpb.Generate(wgpb.DefaultGraphConfig(triples))
	pool, dropped, err := buildPool(g, cfg.seed, servePoolSizes(cfg), true, false)
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty query pool")
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "serve-read-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.ring")
	if err := writeStore(g, path); err != nil {
		return nil, err
	}

	// Set-up, repeated: load the index file, build the server, serve on
	// loopback until the first answer.
	client := newClient(readClients)
	defer closeClient(client)
	setup := &setupTimer{}
	var loadS, firstMS samples
	var store *wcoring.Store
	var hs *httpServer
	for i := 0; i < setupRepeats; i++ {
		if hs != nil {
			hs.stop()
			closeClient(client)
		}
		store, hs = nil, nil
		err := setup.time(func() error {
			start := time.Now()
			var err error
			if store, err = readStore(path); err != nil {
				return err
			}
			loaded := time.Now()
			srv, err := server.New(server.Config{Store: store, AccessLog: io.Discard})
			if err != nil {
				return err
			}
			if hs, err = startHTTP(srv.Handler()); err != nil {
				return err
			}
			if err := firstAnswer(client, hs.url, probeBody); err != nil {
				return err
			}
			loadS = append(loadS, loaded.Sub(start).Seconds())
			firstMS = append(firstMS, ms(time.Since(loaded)))
			return nil
		})
		if err != nil {
			if hs != nil {
				hs.stop()
			}
			return nil, err
		}
	}
	defer hs.stop()

	v := newVerifier(g)
	z := newZipf(pool, zipfS, rand.New(rand.NewSource(cfg.seed)))
	runtime.GC()
	p0 := readProc()
	rec, wall := runReaders(readClients, cfg.seed, cfg.seconds, func(rng *rand.Rand) *request {
		return pool[z.draw(rng)]
	}, func(r *request, rec *readRec) { readOnce(client, hs.url, r, v, rec, time.Now()) })
	p1 := readProc()

	res := &result{dropped: dropped, attempted: rec.attempted, failed: rec.failed, wrong: rec.wrong}
	res.metrics = append(res.metrics, readMetrics(rec, wall)...)
	res.metrics = append(res.metrics, procMetrics(p0, p1, rec.attempted)...)
	res.metrics = append(res.metrics, setup.metrics()...)
	res.metrics = append(res.metrics, serverCPU(p0, p1, rec)...)
	res.metrics = append(res.metrics,
		loadS.at("load.index_s", "s", 0.5),
		firstMS.at("load.first_query_ms", "ms", 0.5),
		scalar("bytes_per_triple", "B", float64(store.SizeBytes())/float64(store.Len())),
	)
	if cfg.trace {
		idx := ringIndex(store.Ring())
		rp := replay(res, g, missedInPoolOrder(pool, rec.missed), store.Compile,
			store.Dictionary().DecodeBinding, func() ltj.Index { return idx })
		res.metrics = append(res.metrics, rp.metrics...)
		rng := rand.New(rand.NewSource(cfg.seed))
		res.metrics = append(res.metrics, probeWavelet("wavelet.", store.Ring(), rp.predConsts, rng, probeOps(cfg), true)...)
	}
	res.metrics = append(res.metrics, scalar("peak_rss_mb", "MB", peakRSSMB()))
	return res, nil
}

func writeStore(g *graph.Graph, path string) error {
	st, err := wcoring.NewStore(stringTriples(g), wcoring.Options{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := st.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readStore loads an index file as `ringserve -index` does without -mmap.
func readStore(path string) (*wcoring.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wcoring.ReadStore(bufio.NewReader(f))
}

// runReaders runs n closed-loop clients until the deadline and merges
// what they recorded.
func runReaders(n int, seed int64, d time.Duration, next func(*rand.Rand) *request, send func(*request, *readRec)) (*readRec, time.Duration) {
	recs := make([]readRec, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		recs[i].start = start
	}
	deadline := start.Add(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
			for time.Now().Before(deadline) {
				send(next(rng), &recs[i])
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	all := &readRec{}
	for i := range recs {
		all.merge(&recs[i])
	}
	return all, wall
}

func missedInPoolOrder(pool []*request, missed map[*request]int) []*request {
	var out []*request
	for _, r := range pool {
		if missed[r] > 0 {
			out = append(out, r)
		}
	}
	return out
}

// maxReplay bounds the in-process replay of a traced serving run.
const maxReplay = 400

type replayResult struct {
	metrics    []metric
	predConsts []graph.ID
}

// replay re-runs the requests that missed the cache in process, through
// the layers behind the HTTP handler: dictionary compile, query.Select on
// the index, dictionary decode; then once more through traced iterators,
// which must reproduce the solution counts and EvalStats exactly.
func replay(res *result, g *graph.Graph, reqs []*request,
	compile func([]wcoring.PatternString) (graph.Pattern, map[string]bool, bool, error),
	decode func(graph.Binding, map[string]bool) map[string]string,
	index func() ltj.Index) replayResult {
	if len(reqs) > maxReplay {
		reqs = reqs[:maxReplay]
	}
	var out replayResult
	var compileUS, runMS samples
	var decodeNanos time.Duration
	decoded := 0
	shapeLat := map[string]samples{}
	var ctr iterCounters
	var plainT, tracedT time.Duration
	queries := 0
	for _, r := range reqs {
		ps := patternStrings(r.q)
		start := time.Now()
		enc, preds, feasible, err := compile(ps)
		compileUS = append(compileUS, float64(time.Since(start))/1e3)
		if err != nil || !feasible {
			res.fail("replay %s: compile: feasible=%v %v", r.body, feasible, err)
			continue
		}
		for _, tp := range enc {
			if !tp.P.IsVar {
				out.predConsts = append(out.predConsts, tp.P.Value)
			}
		}
		sel := query.Select{Pattern: enc, Project: r.project, Distinct: r.distinct, OrderBy: r.orderBy,
			Offset: r.offset, Limit: r.limit, Timeout: engineTimeout}
		var st1, st2 ltj.EvalStats
		sel.Stats = &st1
		start = time.Now()
		sols, err := sel.Run(index())
		d := time.Since(start)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		runMS = append(runMS, ms(d))
		if r.kind == "wgpb" {
			shapeLat[r.shape] = append(shapeLat[r.shape], ms(d))
		}
		rows := make([]map[string]string, len(sols))
		start = time.Now()
		for i, b := range sols {
			rows[i] = decode(b, preds)
		}
		decodeNanos += time.Since(start)
		decoded += len(sols)
		if err := r.verify(g, rows); err != nil {
			res.failed++
			res.fail("replay %s: %v", r.body, err)
			continue
		}

		sel.Stats = &st2
		start = time.Now()
		tsols, err := sel.Run(tracedIndex(index(), &ctr))
		td := time.Since(start)
		if err != nil || len(tsols) != len(sols) || st1 != st2 {
			res.fail("traced replay of %s differs: %d solutions %+v, untraced %d %+v (%v)",
				r.body, len(tsols), st2, len(sols), st1, err)
		}
		plainT += d
		tracedT += td
		queries++
	}
	out.metrics = append(out.metrics,
		compileUS.at("dict.compile_us", "us", 0.5),
		scalar("dict.decode_ns_per_solution", "ns", ratio(float64(decodeNanos), float64(decoded))),
		runMS.at("query.run_ms", "ms", 0.5),
		scalar("trace.overhead_ratio", "ratio", ratio(float64(tracedT), float64(plainT))),
		scalar("ltj.self_ms_per_query", "ms", ratio(ms(tracedT)-ms(time.Duration(ctr.iterNanos.Load())), float64(queries))),
	)
	out.metrics = append(out.metrics, ringMetrics(&ctr, queries)...)
	for s, lat := range shapeLat {
		out.metrics = append(out.metrics, lat.at("ltj.shape."+s+".p50_ms", "ms", 0.5))
	}
	return out
}

func patternStrings(q graph.Pattern) []wcoring.PatternString {
	term := func(t graph.Term, pred bool) string {
		switch {
		case t.IsVar:
			return "?" + t.Name
		case pred:
			return predTerm(t.Value)
		}
		return nodeTerm(t.Value)
	}
	out := make([]wcoring.PatternString, len(q))
	for i, tp := range q {
		out[i] = wcoring.PatternString{S: term(tp.S, false), P: term(tp.P, true), O: term(tp.O, false)}
	}
	return out
}
