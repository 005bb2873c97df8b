package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	wcoring "repro"
	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/wgpb"
)

// The serving workloads speak HTTP to server.New(...).Handler() behind a
// loopback listener, from the same process. Terms are strings: node n is
// "e<n>" and predicate p is "p<p>", so the oracle reads a response's IDs
// back without the dictionary under test.

func nodeTerm(id graph.ID) string { return "e" + strconv.FormatUint(uint64(id), 10) }
func predTerm(id graph.ID) string { return "p" + strconv.FormatUint(uint64(id), 10) }

// parseTerm reads a term back into its oracle ID; pred says which space
// the term must come from.
func parseTerm(s string, pred bool) (graph.ID, error) {
	prefix := byte('e')
	if pred {
		prefix = 'p'
	}
	if len(s) < 2 || s[0] != prefix {
		return 0, fmt.Errorf("term %q is not a %c-term", s, prefix)
	}
	v, err := strconv.ParseUint(s[1:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("term %q: %v", s, err)
	}
	return graph.ID(v), nil
}

func stringTriples(g *graph.Graph) []wcoring.StringTriple {
	out := make([]wcoring.StringTriple, g.Len())
	for i, t := range g.Triples() {
		out[i] = wcoring.StringTriple{S: nodeTerm(t.S), P: predTerm(t.P), O: nodeTerm(t.O)}
	}
	return out
}

// request is one entry of a serving query pool: the HTTP body and what
// the oracle knows about its answer.
type request struct {
	kind     string // wgpb, core, realworld, page, distinct, orderby, project
	shape    string // WGPB shape name for kind wgpb
	q        graph.Pattern
	project  []string
	distinct bool
	orderBy  []string
	offset   int
	limit    int
	body     []byte

	want int // expected row count
	// full, when non-nil, is the whole projected answer (row key →
	// multiplicity); otherwise rows are checked triple by triple.
	full map[string]int
	// order is the expected sequence of ORDER BY keys, when the
	// dictionary orders terms as strings.
	order []string
	// check replaces the oracle for requests whose answer depends on the
	// writes acknowledged so far (serve-live's reads of written subjects).
	check func(rows []map[string]string) error
}

func (r *request) outVars() []string {
	if r.project != nil {
		return r.project
	}
	return r.q.Vars()
}

func encodeBody(q graph.Pattern, project []string, distinct bool, orderBy []string, offset, limit int) []byte {
	ps := patternStrings(q)
	pats := make([]server.PatternJSON, len(ps))
	for i, p := range ps {
		pats[i] = server.PatternJSON{S: p.S, P: p.P, O: p.O}
	}
	b, _ := json.Marshal(server.QueryRequest{Pattern: pats, Project: project, Distinct: distinct,
		OrderBy: orderBy, Offset: offset, Limit: limit})
	return b
}

// poolSizes are the per-kind counts of a serving query pool.
type poolSizes struct {
	wgpbPerShape, cores, realWorld, pageSets, distinct, orderBy, project int
}

func servePoolSizes(cfg config) poolSizes {
	if cfg.short {
		return poolSizes{1, 8, 4, 2, 3, 3, 3}
	}
	return poolSizes{16, 300, 120, 40, 60, 60, 60}
}

const (
	serveLimit    = 1000 // WGPB and real-world requests: large responses
	coreLimit     = 100  // anchored selective cores
	pageLimit     = 100  // OFFSET pagination page size
	pages         = 4
	orderByLimit  = 50
	fullOracleCap = 20000
	realWorldTPs  = 4
)

// buildPool generates the serving query mix over g and settles every
// entry with the oracle. DISTINCT, ORDER BY and projection entries whose
// whole answers exceed fullOracleCap rows are dropped and counted by
// kind. skipAllVar drops queries with a triple pattern of three variables
// (serve-live: those could match written triples).
func buildPool(g *graph.Graph, seed int64, sz poolSizes, orderedDict, skipAllVar bool) ([]*request, map[string]int, error) {
	w := wgpb.NewWorkload(g, seed)
	jena := btree.NewJena(g)
	var pool []*request
	dropped := map[string]int{}
	var err error
	limited := func(r *request) bool {
		var n int
		if err == nil {
			n, err = oracleCount(jena, r.q, r.offset+r.limit)
		}
		if err != nil {
			return false
		}
		r.want = max(0, min(r.limit, n-r.offset))
		r.body = encodeBody(r.q, nil, false, nil, r.offset, r.limit)
		pool = append(pool, r)
		return true
	}
	var hot []graph.Pattern
	for si := range wgpb.Shapes {
		s := &wgpb.Shapes[si]
		for i, q := range w.Queries(s, sz.wgpbPerShape) {
			if limited(&request{kind: "wgpb", shape: s.Name, q: q, limit: serveLimit}) && i == 0 && len(hot) < sz.pageSets/2 {
				hot = append(hot, q)
			}
		}
	}
	cores := w.SharedScanCores(sz.cores + sz.distinct + sz.orderBy + sz.project)
	for i, q := range cores {
		if i < sz.cores {
			limited(&request{kind: "core", q: q, limit: coreLimit})
		}
	}
	hot = append(hot, cores[:min(len(cores), sz.pageSets-len(hot))]...)
	for added := 0; added < sz.realWorld; {
		q := w.RealWorldQuery(realWorldTPs)
		if skipAllVar && hasAllVarPattern(q) {
			continue
		}
		added++
		limited(&request{kind: "realworld", q: q, limit: serveLimit})
	}
	for _, q := range hot {
		for p := 0; p < pages; p++ {
			limited(&request{kind: "page", q: q, offset: p * pageLimit, limit: pageLimit})
		}
	}
	// DISTINCT, ORDER BY and projection run on the selective cores, whose
	// whole answers the oracle can hold.
	rest := cores[min(len(cores), sz.cores):]
	for i, q := range rest {
		var r *request
		switch {
		case i < sz.distinct:
			r = &request{kind: "distinct", q: q, project: []string{"b"}, distinct: true, limit: coreLimit}
		case i < sz.distinct+sz.orderBy:
			r = &request{kind: "orderby", q: q, orderBy: []string{"c"}, limit: orderByLimit}
		default:
			r = &request{kind: "project", q: q, project: []string{"p", "c"}, limit: coreLimit}
		}
		kept, err := settleFull(jena, r, orderedDict)
		if err != nil {
			return nil, nil, err
		}
		if !kept {
			dropped[r.kind]++
			continue
		}
		pool = append(pool, r)
	}
	return pool, dropped, err
}

func hasAllVarPattern(q graph.Pattern) bool {
	for _, tp := range q {
		if tp.S.IsVar && tp.P.IsVar && tp.O.IsVar {
			return true
		}
	}
	return false
}

// settleFull computes the whole projected answer of r with the oracle,
// or reports false when it exceeds fullOracleCap rows.
func settleFull(jena *btree.Jena, r *request, orderedDict bool) (bool, error) {
	sols, ok, err := oracleAll(jena, r.q, fullOracleCap)
	if !ok || err != nil {
		return false, err
	}
	vars := r.outVars()
	r.full = map[string]int{}
	var orderKeys []string
	for _, b := range sols {
		row := bindingTerms(r.q, b)
		k, _ := rowKey(row, vars)
		if r.distinct && r.full[k] > 0 {
			continue
		}
		r.full[k]++
		if r.orderBy != nil {
			ok, _ := rowKey(row, r.orderBy)
			orderKeys = append(orderKeys, ok)
		}
	}
	total := 0
	for _, n := range r.full {
		total += n
	}
	r.want = max(0, min(r.limit, total-r.offset))
	if r.orderBy != nil && orderedDict {
		sort.Strings(orderKeys)
		r.order = orderKeys[min(r.offset, len(orderKeys)):min(len(orderKeys), r.offset+r.limit)]
	}
	r.body = encodeBody(r.q, r.project, r.distinct, r.orderBy, r.offset, r.limit)
	return true, nil
}

// bindingTerms renders an oracle binding as the server would.
func bindingTerms(q graph.Pattern, b graph.Binding) map[string]string {
	preds := predVars(q)
	out := make(map[string]string, len(b))
	for v, id := range b {
		if preds[v] {
			out[v] = predTerm(id)
		} else {
			out[v] = nodeTerm(id)
		}
	}
	return out
}

func predVars(q graph.Pattern) map[string]bool {
	m := map[string]bool{}
	for _, tp := range q {
		if tp.P.IsVar {
			m[tp.P.Name] = true
		}
	}
	return m
}

// verify checks one decoded answer's rows against the oracle.
func (r *request) verify(g *graph.Graph, rows []map[string]string) error {
	if r.check != nil {
		return r.check(rows)
	}
	if len(rows) != r.want {
		return fmt.Errorf("%d rows, oracle says %d", len(rows), r.want)
	}
	if r.full != nil {
		left := make(map[string]int, len(r.full))
		for k, n := range r.full {
			left[k] = n
		}
		vars := r.outVars()
		for i, row := range rows {
			if len(row) != len(vars) {
				return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(vars))
			}
			k, ok := rowKey(row, vars)
			if !ok || left[k] == 0 {
				return fmt.Errorf("row %d %v is not in the oracle's answer", i, row)
			}
			left[k]--
			if r.order != nil {
				if ok, _ := rowKey(row, r.orderBy); ok != r.order[i] {
					return fmt.Errorf("row %d: ORDER BY key %q, oracle says %q", i, ok, r.order[i])
				}
			}
		}
		return nil
	}
	preds := predVars(r.q)
	sols := make([]graph.Binding, len(rows))
	for i, row := range rows {
		b := make(graph.Binding, len(row))
		for v, t := range row {
			id, err := parseTerm(t, preds[v])
			if err != nil {
				return fmt.Errorf("row %d: %v", i, err)
			}
			b[v] = id
		}
		sols[i] = b
	}
	return checkSolutions(g, r.q, sols)
}

// zipf draws pool entries with Zipf popularity: the entry at rank i has
// weight 1/(i+1)^s. Ranks interleave the kinds in proportion to their
// share of the pool and, within a kind, cycle through its answer-size
// quartiles, so every popularity band carries the same mix of kinds and
// answer sizes: a seed changes which instances are hot, not how much work
// the hot set is. s = 0 draws uniformly.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(pool []*request, s float64, rng *rand.Rand) *zipf {
	n := len(pool)
	byKind := map[string][]int{}
	var kinds []string
	for i, r := range pool {
		if byKind[r.kind] == nil {
			kinds = append(kinds, r.kind)
		}
		byKind[r.kind] = append(byKind[r.kind], i)
	}
	key := make([]float64, n)
	const quartiles = 4
	for _, k := range kinds {
		idx := byKind[k]
		sort.Slice(idx, func(a, b int) bool { return pool[idx[a]].want < pool[idx[b]].want })
		var buckets [quartiles][]int
		for q := range buckets {
			buckets[q] = append([]int(nil), idx[q*len(idx)/quartiles:(q+1)*len(idx)/quartiles]...)
			rng.Shuffle(len(buckets[q]), func(a, b int) { buckets[q][a], buckets[q][b] = buckets[q][b], buckets[q][a] })
		}
		for pos := 0; pos < len(idx); {
			for q := range buckets {
				if len(buckets[q]) > 0 {
					key[buckets[q][0]] = (float64(pos) + rng.Float64()) / float64(len(idx))
					buckets[q] = buckets[q][1:]
					pos++
				}
			}
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	z := &zipf{cdf: make([]float64, n), perm: perm}
	acc := 0.0
	for i := range z.cdf {
		acc += math.Pow(float64(i+1), -s)
		z.cdf[i] = acc
	}
	for i := range z.cdf {
		z.cdf[i] /= acc
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
}

// httpServer serves a handler on a loopback listener.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the server, once its clients are done, and waits for its
// serve loop to return.
func (s *httpServer) stop() {
	s.hs.Close()
	<-s.done
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one request and reads the whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// firstAnswer polls until the server returns a 200 to body, the end of a
// serving workload's set-up.
func firstAnswer(c *http.Client, url string, body []byte) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, b, err := post(c, url+"/query", body)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no answer from the server: status %d %s %v", code, b, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// verifier checks answers, remembering the fingerprints of answers it
// verified in full so repeats (cache hits above all) cost a hash.
type verifier struct {
	g  *graph.Graph
	mu sync.Mutex
	ok map[*request]map[uint64]struct{}
}

func newVerifier(g *graph.Graph) *verifier {
	return &verifier{g: g, ok: map[*request]map[uint64]struct{}{}}
}

func (v *verifier) verify(r *request, resp *response) (rows int, err error) {
	if resp.count != -1 && resp.count != r.want && r.check == nil {
		return 0, fmt.Errorf("count %d, oracle says %d", resp.count, r.want)
	}
	fp := resp.fingerprint()
	if r.check == nil {
		v.mu.Lock()
		_, seen := v.ok[r][fp]
		v.mu.Unlock()
		if seen {
			return r.want, nil
		}
	}
	rs, err := resp.rows()
	if err != nil {
		return 0, err
	}
	if resp.count != -1 && resp.count != len(rs) {
		return 0, fmt.Errorf("count field %d but %d rows", resp.count, len(rs))
	}
	if err := r.verify(v.g, rs); err != nil {
		return 0, err
	}
	if r.check == nil {
		v.mu.Lock()
		if v.ok[r] == nil {
			v.ok[r] = map[uint64]struct{}{}
		}
		v.ok[r][fp] = struct{}{}
		v.mu.Unlock()
	}
	return len(rs), nil
}

// readRec accumulates one read client's observations.
type readRec struct {
	start                            time.Time // start of the measured phase
	lat, hit, miss, elapsed, outside samples
	done                             []time.Duration // completion of each lat sample, from start
	attempted, failed, shed          int
	okCount, cached, shared          int
	bytes, rows                      int64
	stats                            wireStats
	missRows, misses                 int
	missed                           map[*request]int
	wrong                            []string
	// verifyCPU is the client's own CPU time spent decoding, checking
	// and recording answers; the serving workloads subtract it from the
	// process's CPU so query_cpu_ms is the server's and the transport's.
	verifyCPU time.Duration
	// pace holds the pace probes the client ran (see cpu.go); their CPU
	// is subtracted too.
	pace pacer
}

func (a *readRec) merge(b *readRec) {
	a.lat = append(a.lat, b.lat...)
	a.done = append(a.done, b.done...)
	a.hit = append(a.hit, b.hit...)
	a.miss = append(a.miss, b.miss...)
	a.elapsed = append(a.elapsed, b.elapsed...)
	a.outside = append(a.outside, b.outside...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.shed += b.shed
	a.okCount += b.okCount
	a.cached += b.cached
	a.shared += b.shared
	a.bytes += b.bytes
	a.rows += b.rows
	a.stats.Leaps += b.stats.Leaps
	a.stats.Seeks += b.stats.Seeks
	a.stats.BatchDescents += b.stats.BatchDescents
	a.stats.BatchEmits += b.stats.BatchEmits
	a.missRows += b.missRows
	a.misses += b.misses
	if a.missed == nil {
		a.missed = map[*request]int{}
	}
	for r, n := range b.missed {
		a.missed[r] += n
	}
	a.wrong = append(a.wrong, b.wrong...)
	a.verifyCPU += b.verifyCPU
	a.pace.add(b.pace)
}

// readOnce sends one query and records it, timed from due (the send time
// for a closed loop, the schedule for an open one); the answer is checked
// after the latency is taken, on the client's CPU time in rec.verifyCPU.
func readOnce(c *http.Client, url string, r *request, v *verifier, rec *readRec, due time.Time) {
	rec.attempted++
	code, body, err := post(c, url+"/query", r.body)
	d := time.Since(due)
	runtime.LockOSThread()
	c0 := threadCPU()
	defer func() {
		rec.verifyCPU += threadCPU() - c0
		if rec.attempted%paceEvery == 1 {
			rec.pace.probe()
		}
		runtime.UnlockOSThread()
	}()
	switch {
	case err != nil:
		rec.failed++
		return
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		rec.failed++
		rec.shed++
		return
	case code != http.StatusOK:
		rec.failed++
		return
	}
	resp, err := decodeResponse(body)
	if err == nil && resp.timedOut {
		err = errTimedOut
	}
	if err == nil {
		var n int
		if n, err = v.verify(r, resp); err == nil {
			rec.rows += int64(n)
			if !resp.cached {
				rec.missRows += n
			}
		}
	}
	if err != nil {
		rec.failed++
		if !errors.Is(err, errTimedOut) && len(rec.wrong) < maxWrong {
			rec.wrong = append(rec.wrong, fmt.Sprintf("%s query %s: %v", r.kind, r.body, err))
		}
		return
	}
	l := ms(d)
	rec.okCount++
	rec.lat = append(rec.lat, l)
	rec.done = append(rec.done, time.Since(rec.start))
	rec.elapsed = append(rec.elapsed, resp.elapsedMS)
	rec.outside = append(rec.outside, l-resp.elapsedMS)
	rec.bytes += int64(len(body))
	if resp.shared {
		rec.shared++
	}
	if resp.cached {
		rec.cached++
		rec.hit = append(rec.hit, l)
		return
	}
	rec.miss = append(rec.miss, l)
	rec.misses++
	if rec.missed == nil {
		rec.missed = map[*request]int{}
	}
	rec.missed[r]++
	if resp.stats != nil {
		rec.stats.Leaps += resp.stats.Leaps
		rec.stats.Seeks += resp.stats.Seeks
		rec.stats.BatchDescents += resp.stats.BatchDescents
		rec.stats.BatchEmits += resp.stats.BatchEmits
	}
}

var errTimedOut = errors.New("query timed out")

// windows is the number of equal slices of the measured phase whose
// median and throughput are reported as a median, so a burst of
// interference on the shared host moves one slice, not the result.
const windows = 5

// readMetrics turns merged read observations into metrics; wall is the
// measured phase's duration.
func readMetrics(rec *readRec, wall time.Duration) []metric {
	ok := float64(rec.okCount)
	w := wall / windows
	p50s, qps := make(samples, windows), make(samples, windows)
	for k := range p50s {
		var in samples
		for i, d := range rec.done {
			if int(d/w) == k || (k == windows-1 && d >= wall) {
				in = append(in, rec.lat[i])
			}
		}
		p50s[k] = in.sorted().quantile(0.5)
		qps[k] = float64(len(in)) / w.Seconds()
	}
	return []metric{
		p50s.at("query_p50_ms", "ms", 0.5),
		rec.lat.at("query_p99_ms", "ms", 0.99),
		qps.at("queries_per_s", "1/s", 0.5),
		scalar("query_success_ratio", "ratio", 1-ratio(float64(rec.failed), float64(rec.attempted))),
		scalar("server.cache_hit_ratio", "ratio", ratio(float64(rec.cached), ok)),
		rec.hit.at("server.hit_ms_p50", "ms", 0.5),
		rec.miss.at("server.miss_ms_p50", "ms", 0.5),
		scalar("server.shared_ratio", "ratio", ratio(float64(rec.shared), ok)),
		scalar("server.shed_ratio", "ratio", ratio(float64(rec.shed), float64(rec.attempted))),
		rec.elapsed.at("server.elapsed_ms_p50", "ms", 0.5),
		rec.outside.at("server.outside_ms_p50", "ms", 0.5),
		scalar("server.response_bytes_per_solution", "B", ratio(float64(rec.bytes), float64(rec.rows))),
		scalar("ltj.leaps_per_solution", "count", ratio(float64(rec.stats.Leaps), float64(rec.missRows))),
		scalar("ltj.seeks_per_query", "count", ratio(float64(rec.stats.Seeks), float64(rec.misses))),
		scalar("ltj.batch_descents_per_query", "count", ratio(float64(rec.stats.BatchDescents), float64(rec.misses))),
		scalar("ltj.batch_emits_per_descent", "count", ratio(float64(rec.stats.BatchEmits), float64(rec.stats.BatchDescents))),
	}
}

// serverCPU reports query_cpu_ms, the process's CPU time over the measured
// phase less the clients' verification work and pace probes, per
// completed read, at the reference pace; and the verification's share of
// the process's CPU time.
func serverCPU(p0, p1 procCounters, rec *readRec) []metric {
	total := p1.cpu - p0.cpu
	return append(rec.pace.scale(scalar("query_cpu_ms", "ms", ratio(ms(total-rec.verifyCPU-rec.pace.cpu), float64(rec.okCount)))),
		scalar("loadgen.verify_cpu_share", "ratio", ratio(float64(rec.verifyCPU), float64(total))))
}
