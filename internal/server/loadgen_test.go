package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServe is an in-process load generator over the full HTTP
// request path: it drives a fixed query mix through httptest at 1/4/16
// concurrent clients with the result cache on and off, at GOMAXPROCS 1
// and 4, reporting throughput and tail latency. `make bench-serve`
// writes the sweep to BENCH_serve.json via the BENCH_SERVE_JSON hook in
// TestMain.
func BenchmarkServe(b *testing.B) {
	for _, procs := range []int{1, 4} {
		for _, clients := range []int{1, 4, 16} {
			for _, cache := range []bool{true, false} {
				name := fmt.Sprintf("procs=%d/clients=%d/cache=%v", procs, clients, cache)
				b.Run(name, func(b *testing.B) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					benchServe(b, procs, clients, cache, "base")
				})
			}
			// The shared-prefix mix is cache-miss-heavy by construction
			// (cache disabled): a hot set of two cores, so concurrent
			// clients collide on identical canonical patterns and the
			// shared-scan lane batches them into one evaluation. With the
			// cache on every row would be a cache hit — uninteresting.
			name := fmt.Sprintf("procs=%d/clients=%d/cache=false/mix=shared", procs, clients)
			b.Run(name, func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				benchServe(b, procs, clients, false, "shared")
			})
		}
	}
}

// benchMix is a set of selective 2-pattern joins anchored at constants —
// the "interactive" shape a serving layer sees, small enough that
// per-request overhead (HTTP, admission, cache) is a visible fraction.
func benchMix() []QueryRequest {
	anchors := []string{"n000", "n003", "n010", "n027", "n058", "n101", "n145", "n199"}
	return anchorMix(anchors)
}

// sharedBenchMix is the shared-prefix workload (the same shape
// wgpb.SharedScanCores generates): a hot set of two cores, round-robined
// so concurrent clients hold identical canonical patterns most of the
// time and the shared-scan lane groups them.
func sharedBenchMix() []QueryRequest {
	return anchorMix([]string{"n000", "n101"})
}

func anchorMix(anchors []string) []QueryRequest {
	mix := make([]QueryRequest, len(anchors))
	for i, a := range anchors {
		mix[i] = QueryRequest{
			Pattern: []PatternJSON{
				{S: a, P: "?p", O: "?b"},
				{S: "?b", P: "p0", O: "?c"},
			},
			Limit: 100,
		}
	}
	return mix
}

func benchServe(b *testing.B, procs, clients int, cache bool, mixName string) {
	cfg := Config{
		Store:         heavyStore(b),
		AccessLog:     io.Discard,
		MaxConcurrent: clients,
		MaxQueue:      4 * clients,
		QueueWait:     10 * time.Second,
	}
	if !cache {
		cfg.CacheEntries = -1
	}
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mix := benchMix()
	if mixName == "shared" {
		mix = sharedBenchMix()
	}
	bodies := make([][]byte, len(mix))
	for i, req := range mix {
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	do := func(i int) time.Duration {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Error(err)
			return 0
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Errorf("status %d, err %v", resp.StatusCode, err)
		} else if !bytes.HasPrefix(body, []byte(`{"vars":[`)) {
			b.Errorf("not a columnar /query body: %.80s", body)
		}
		return time.Since(start)
	}
	// Warm: connections, and the cache when enabled.
	for i := range mix {
		do(i)
	}

	latencies := make([][]time.Duration, clients)
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				latencies[c] = append(latencies[c], do(i))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := quantile(all, 0.50)
	p99 := quantile(all, 0.99)
	qps := float64(b.N) / elapsed.Seconds()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(float64(p50)/1e6, "p50-ms")
	b.ReportMetric(float64(p99)/1e6, "p99-ms")

	recordServeBench(serveBenchResult{
		Procs:    procs,
		Clients:  clients,
		Cache:    cache,
		Mix:      mixName,
		Requests: b.N,
		QPS:      round3(qps),
		P50MS:    round3(float64(p50) / 1e6),
		P99MS:    round3(float64(p99) / 1e6),
	})
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func round3(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}

// serveBenchResult is one row of BENCH_serve.json.
type serveBenchResult struct {
	Procs   int  `json:"gomaxprocs"`
	Clients int  `json:"clients"`
	Cache   bool `json:"cache"`
	// Mix is "base" (8 anchored join cores), "shared" (2-core hot set
	// exercising shared-scan grouping under concurrency), or
	// "repl-fanout-Nnode" (the base mix round-robined over a replicated
	// deployment; see BenchmarkReplFanout).
	Mix string `json:"mix"`
	// Nodes is the serving-node count for the repl-fanout rows (0 for the
	// single-process sweeps).
	Nodes    int     `json:"nodes,omitempty"`
	Requests int     `json:"requests"`
	QPS      float64 `json:"qps"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

var (
	serveBenchMu      sync.Mutex
	serveBenchResults []serveBenchResult
)

// recordServeBench keeps the largest-N run per configuration: the bench
// framework calls each sub-benchmark several times while calibrating b.N,
// and only the final, longest run is worth reporting.
func recordServeBench(r serveBenchResult) {
	serveBenchMu.Lock()
	defer serveBenchMu.Unlock()
	for i, old := range serveBenchResults {
		if old.Procs == r.Procs && old.Clients == r.Clients && old.Cache == r.Cache && old.Mix == r.Mix {
			if r.Requests >= old.Requests {
				serveBenchResults[i] = r
			}
			return
		}
	}
	serveBenchResults = append(serveBenchResults, r)
}

// TestMain exists for the BENCH_SERVE_JSON hook: when the env var names a
// path and the serve benchmark ran, the collected sweep is written there
// (see `make bench-serve`).
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_SERVE_JSON"); path != "" && len(serveBenchResults) > 0 {
		out := struct {
			Workload string             `json:"workload"`
			Triples  int                `json:"triples"`
			QueryMix int                `json:"query_mix"`
			NumCPU   int                `json:"num_cpu"`
			Note     string             `json:"note"`
			Results  []serveBenchResult `json:"results"`
		}{
			Workload: "selective 2-pattern joins over a 20k-triple random graph, full HTTP path",
			Triples:  heavySt.Len(),
			QueryMix: len(benchMix()),
			NumCPU:   runtime.NumCPU(),
			Note:     "in-process httptest transport; GOMAXPROCS swept per row; cache=true serves the mix from the result cache after one warm pass; mix=shared is a cache-disabled 2-core hot set exercising shared-scan grouping",
			Results:  serveBenchResults,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	os.Exit(code)
}
