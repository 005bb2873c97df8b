package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/wgpb"
)

// The wgpb-engine workload is the paper's Table 1 / Figure 8 protocol in
// process: the 17 WGPB shapes instantiated by random walks over a
// 1M-triple synthetic graph, evaluated one at a time with limit 1000 and
// a timeout on the Ring; the traced run also evaluates every fifth
// instance on the C-Ring. No dictionary, HTTP or cache is involved.

const (
	engineLimit    = 1000
	engineTimeout  = 10 * time.Second
	setupRepeats   = 5
	engineCRingMod = 5  // every fifth instance of a shape also runs on the C-Ring
	paceEvery      = 10 // evaluations or requests per pace probe (see cpu.go)
)

type engineQuery struct {
	shape string
	q     graph.Pattern
	want  int // min(limit, total) from the oracle
	cring bool
}

type engineInput struct {
	g       *graph.Graph
	queries []engineQuery
}

// sizes returns the graph size and instances per shape.
func engineSizes(cfg config) (triples, perShape int) {
	if cfg.short {
		return 20000, 3
	}
	return 1000000, 50
}

func prepEngine(cfg config) (*engineInput, error) {
	triples, perShape := engineSizes(cfg)
	g := wgpb.Generate(wgpb.DefaultGraphConfig(triples))
	w := wgpb.NewWorkload(g, cfg.seed)
	jena := btree.NewJena(g)
	in := &engineInput{g: g}
	for si := range wgpb.Shapes {
		s := &wgpb.Shapes[si]
		for i, q := range w.Queries(s, perShape) {
			want, err := oracleCount(jena, q, engineLimit)
			if err != nil {
				return nil, err
			}
			in.queries = append(in.queries, engineQuery{shape: s.Name, q: q, want: want,
				cring: cfg.short || i%engineCRingMod == 0})
		}
	}
	return in, nil
}

// buildRing times the index build, the engine workload's set-up, as the
// median of several builds.
func buildRing(g *graph.Graph) (*ring.Ring, *setupTimer) {
	var r *ring.Ring
	t := &setupTimer{}
	for i := 0; i < setupRepeats; i++ {
		r = nil
		t.time(func() error {
			r = ring.New(g, ring.Options{})
			return nil
		})
	}
	return r, t
}

func ringIndex(r *ring.Ring) ltj.Index {
	return ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter { return r.NewPatternState(tp) })
}

// answerChecker verifies every answer against the oracle. An answer is
// checked in full the first time; a later answer to the same query with
// the same fingerprint is the same answer and is accepted as verified.
type answerChecker struct {
	g        *graph.Graph
	verified map[[2]int]uint64 // (engine, query) → fingerprint of a verified answer
}

// check classifies one evaluation: ok, failed (error or timeout) or
// wrong (the oracle disagrees; recorded on res).
func (c *answerChecker) check(res *result, engine, qi int, q engineQuery, out *ltj.Result, err error) bool {
	res.attempted++
	if err != nil || out.TimedOut {
		res.failed++
		return false
	}
	if len(out.Solutions) != q.want {
		res.failed++
		res.fail("%s query %d (%s): %d solutions, oracle says %d", engineName(engine), qi, q.shape, len(out.Solutions), q.want)
		return false
	}
	vars := q.q.Vars()
	h := hashSolutions(vars, out.Solutions)
	key := [2]int{engine, qi}
	if prev, ok := c.verified[key]; ok && prev == h {
		return true
	}
	if err := checkSolutions(c.g, q.q, out.Solutions); err != nil {
		res.failed++
		res.fail("%s query %d (%s): %v", engineName(engine), qi, q.shape, err)
		return false
	}
	c.verified[key] = h
	return true
}

func engineName(e int) string {
	if e == 1 {
		return "C-Ring"
	}
	return "Ring"
}

// evalRecord is one evaluation in a pass.
type evalRecord struct {
	d     time.Duration
	cpu   time.Duration
	n     int
	stats ltj.EvalStats
}

// evalQuery evaluates q and returns its wall-clock time and the process's
// CPU time over the call. Queries run one at a time, so the process clock
// charges the evaluation its own work plus the GC work its allocations
// cause on the runtime's background workers; the answer is checked after.
func evalQuery(idx ltj.Index, q graph.Pattern) (*ltj.Result, time.Duration, time.Duration, error) {
	c0, start := processCPU(), time.Now()
	out, err := ltj.Evaluate(idx, q, ltj.Options{Limit: engineLimit, Timeout: engineTimeout})
	return out, time.Since(start), processCPU() - c0, err
}

func runEngine(cfg config) (*result, error) {
	in, err := prepEngine(cfg)
	if err != nil {
		return nil, err
	}
	r, setup := buildRing(in.g)
	res := &result{dropped: map[string]int{}}
	chk := &answerChecker{g: in.g, verified: map[[2]int]uint64{}}
	ridx := ringIndex(r)

	if cfg.trace {
		cr := ring.New(in.g, ring.Options{Compress: true, RRRBlock: 16})
		res.metrics = append(res.metrics, scalar("cring.bytes_per_triple", "B", cr.BytesPerTriple()))
		traceEngine(cfg, in, r, cr, chk, res)
	} else {
		measureEngine(cfg, in, ridx, chk, res)
	}
	res.metrics = append(res.metrics, setup.metrics()...)
	res.metrics = append(res.metrics,
		scalar("query_success_ratio", "ratio", 1-ratio(float64(res.failed), float64(res.attempted))),
		scalar("bytes_per_triple", "B", r.BytesPerTriple()),
		scalar("peak_rss_mb", "MB", peakRSSMB()),
	)
	return res, nil
}

// measureEngine is the untraced run: shuffled passes over the instances
// on the Ring until the time is up.
func measureEngine(cfg config, in *engineInput, ridx ltj.Index, chk *answerChecker, res *result) {
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(in.queries))
	// A query's latency is the process's CPU time over its evaluation
	// (see cpu.go), and each instance's latency is the median of its
	// repeats, so neither stolen CPU nor one GC cycle landing in one
	// evaluation moves the percentiles, which are taken over
	// instances. query_cpu_ms is the mean over every evaluation, so it
	// carries the GC cost in full, at the reference pace: the pace probe
	// runs on this thread after every paceEvery evaluations. Wall-clock
	// times are reported alongside.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var pace pacer
	reps := make([]samples, len(in.queries))
	var wall samples
	runtime.GC()
	p0 := readProc()
	deadline := time.Now().Add(cfg.seconds)
loop:
	for {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, qi := range order {
			if !time.Now().Before(deadline) {
				break loop
			}
			q := in.queries[qi]
			out, d, c, err := evalQuery(ridx, q.q)
			if chk.check(res, 0, qi, q, out, err) {
				reps[qi] = append(reps[qi], ms(c))
				wall = append(wall, ms(d))
			}
			if res.attempted%paceEvery == 1 {
				pace.probe()
			}
		}
	}
	p1 := readProc()
	res.metrics = append(res.metrics, procMetrics(p0, p1, len(wall))...)
	var lat, all samples
	for _, r := range reps {
		if len(r) > 0 {
			lat = append(lat, r.sorted().quantile(0.5))
			all = append(all, r...)
		}
	}
	res.metrics = append(res.metrics, latencyMetrics(lat)...)
	res.metrics = append(res.metrics, pace.scale(scalar("query_cpu_ms", "ms", all.mean()))...)
	res.metrics = append(res.metrics,
		wall.at("wall.query_p50_ms", "ms", 0.5),
		wall.at("wall.query_p99_ms", "ms", 0.99),
	)
}

// traceEngine is the engine workload's traced run: one untraced pass and
// one pass through traced iterators over the same queries, which must
// agree on every solution count and EvalStats count, then the wavelet
// probes on the Ring's and C-Ring's own columns.
func traceEngine(cfg config, in *engineInput, r, cr *ring.Ring, chk *answerChecker, res *result) {
	ridx := ringIndex(r)
	pass := func(idx ltj.Index, engine int, only func(engineQuery) bool) []evalRecord {
		recs := make([]evalRecord, len(in.queries))
		for qi, q := range in.queries {
			if !only(q) {
				continue
			}
			out, d, c, err := evalQuery(idx, q.q)
			chk.check(res, engine, qi, q, out, err)
			recs[qi] = evalRecord{d: d, cpu: c}
			if out != nil {
				recs[qi].n, recs[qi].stats = len(out.Solutions), out.Stats
			}
		}
		return recs
	}
	all := func(engineQuery) bool { return true }

	p0 := readProc()
	plain := pass(ridx, 0, all)
	p1 := readProc()
	var ctr iterCounters
	traced := pass(tracedIndex(ridx, &ctr), 0, all)
	if err := compareRuns(plain, traced); err != nil {
		res.fail("traced run differs from untraced run: %v", err)
	}
	cplain := pass(ringIndex(cr), 1, func(q engineQuery) bool { return q.cring })

	var plainT, tracedT time.Duration
	var st ltj.EvalStats
	solutions := 0
	shapeLat := map[string]samples{}
	var lat, clat samples
	for qi, rec := range plain {
		plainT += rec.d
		tracedT += traced[qi].d
		addStats(&st, rec.stats)
		solutions += rec.n
		lat = append(lat, ms(rec.cpu))
		shapeLat[in.queries[qi].shape] = append(shapeLat[in.queries[qi].shape], ms(rec.cpu))
		if in.queries[qi].cring {
			clat = append(clat, ms(cplain[qi].cpu))
		}
	}
	nq := float64(len(in.queries))
	res.metrics = append(res.metrics, latencyMetrics(lat)...)
	res.metrics = append(res.metrics,
		scalar("trace.overhead_ratio", "ratio", ratio(float64(tracedT), float64(plainT))),
		clat.at("cring_query_p50_ms", "ms", 0.5))
	res.metrics = append(res.metrics, ltjMetrics(st, solutions, len(in.queries))...)
	res.metrics = append(res.metrics, ringMetrics(&ctr, len(in.queries))...)
	res.metrics = append(res.metrics, scalar("ltj.self_ms_per_query", "ms",
		ratio(ms(tracedT)-ms(time.Duration(ctr.iterNanos.Load())), nq)))
	for _, s := range wgpb.Shapes {
		res.metrics = append(res.metrics, shapeLat[s.Name].at("ltj.shape."+s.Name+".p50_ms", "ms", 0.5))
	}
	res.metrics = append(res.metrics, procMetrics(p0, p1, len(in.queries))...)

	consts := queryConstants(in.queries)
	rng := rand.New(rand.NewSource(cfg.seed))
	res.metrics = append(res.metrics, probeWavelet("wavelet.", r, consts, rng, probeOps(cfg), true)...)
	res.metrics = append(res.metrics, probeWavelet("cring.wavelet.", cr, consts, rng, probeOps(cfg)/4, false)...)
}

func queryConstants(qs []engineQuery) []graph.ID {
	var out []graph.ID
	for _, q := range qs {
		for _, tp := range q.q {
			if !tp.P.IsVar {
				out = append(out, tp.P.Value)
			}
		}
	}
	return out
}

func addStats(dst *ltj.EvalStats, s ltj.EvalStats) {
	dst.Leaps += s.Leaps
	dst.Binds += s.Binds
	dst.Enumerations += s.Enumerations
	dst.Seeks += s.Seeks
	dst.BatchDescents += s.BatchDescents
	dst.BatchEmits += s.BatchEmits
}

// compareRuns fails unless both passes produced the same solution counts
// and the same engine operation counts for every query.
func compareRuns(a, b []evalRecord) error {
	for i := range a {
		if a[i].n != b[i].n || a[i].stats != b[i].stats {
			return fmt.Errorf("query %d: untraced %d solutions %+v, traced %d solutions %+v",
				i, a[i].n, a[i].stats, b[i].n, b[i].stats)
		}
	}
	return nil
}

// latencyMetrics reports per-query CPU latencies, one sample per
// instance.
func latencyMetrics(lat samples) []metric {
	return []metric{
		lat.at("query_p50_ms", "ms", 0.5),
		lat.at("query_p99_ms", "ms", 0.99),
		scalar("queries_per_s", "1/s", ratio(float64(len(lat)), lat.sum()/1000)),
	}
}

func ltjMetrics(st ltj.EvalStats, solutions, queries int) []metric {
	nq := float64(queries)
	return []metric{
		scalar("ltj.leaps_per_solution", "count", ratio(float64(st.Leaps), float64(solutions))),
		scalar("ltj.seeks_per_query", "count", ratio(float64(st.Seeks), nq)),
		scalar("ltj.batch_descents_per_query", "count", ratio(float64(st.BatchDescents), nq)),
		scalar("ltj.batch_emits_per_descent", "count", ratio(float64(st.BatchEmits), float64(st.BatchDescents))),
	}
}

func ringMetrics(c *iterCounters, queries int) []metric {
	nq := float64(queries)
	return []metric{
		scalar("ring.leap_calls_per_query", "count", ratio(float64(c.leaps.Load()), nq)),
		scalar("ring.leap_ns", "ns", ratio(float64(c.leapNanos.Load()), float64(c.leaps.Load()))),
		scalar("ring.bind_ns", "ns", ratio(float64(c.bindNanos.Load()), float64(c.binds.Load()))),
		scalar("ring.leap_run_calls_per_query", "count", ratio(float64(c.leapRuns.Load()), nq)),
		scalar("ring.enumerated_per_query", "count", ratio(float64(c.enumerated.Load()), nq)),
	}
}
