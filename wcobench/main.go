// Command wcobench is the repository's benchmark: one program that runs
// the paper's WGPB engine workload and two HTTP serving workloads, checks
// every answer against an oracle that shares no code with the ring or the
// LTJ engine, and prints every metric by name and unit.
//
//	go run . --workload wgpb-engine --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (see README.md for the table of which layer metric should move which
// end-to-end metric). The line before it is a report with the host, the
// commit, the seed and, per metric, the sample count and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	short    bool   // tiny inputs, every oracle check on; for the benchmark's own test
	tmpDir   string // scratch space for index files and data directories
}

// result is what a workload returns: its metrics plus the oracle's verdict.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	wrong     []string       // descriptions of answers the oracle rejected
	dropped   map[string]int // generated requests, by kind, whose whole answers the oracle cannot hold
}

// maxWrong caps the wrong answers a run describes; it fails on the first.
const maxWrong = 20

func (r *result) fail(format string, args ...any) {
	if len(r.wrong) < maxWrong {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"wgpb-engine": runEngine,
	"serve-read":  runServeRead,
	"serve-live":  runServeLive,
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "wgpb-engine, serve-read or serve-live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&cfg.short, "short", false, "tiny inputs for a quick end-to-end check")
	flag.StringVar(&cfg.tmpDir, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "wcobench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wcobench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err == nil && res.attempted == 0 {
		err = fmt.Errorf("%s attempted no operation", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcobench:", err)
		os.Exit(1)
	}
	for _, w := range res.wrong {
		fmt.Fprintln(os.Stderr, "wcobench: wrong answer:", w)
	}
	printResult(os.Stdout, cfg, res)
}

// hostInfo records where and what was measured.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func printResult(out *os.File, cfg config, res *result) {
	type reportMetric struct {
		Unit    string  `json:"unit"`
		Value   float64 `json:"value"`
		Samples int     `json:"samples"`
		P25     float64 `json:"p25,omitempty"`
		Median  float64 `json:"median,omitempty"`
		P75     float64 `json:"p75,omitempty"`
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	report := struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Seconds  float64                 `json:"seconds"`
		Trace    bool                    `json:"trace"`
		Short    bool                    `json:"short,omitempty"`
		Host     hostInfo                `json:"host"`
		Dropped  map[string]int          `json:"oracle_dropped_queries"`
		Wrong    []string                `json:"wrong,omitempty"`
		Metrics  map[string]reportMetric `json:"metrics"`
	}{cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.short, host(), res.dropped, res.wrong, map[string]reportMetric{}}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.wrong) == 0, res.attempted, res.failed, map[string]value{}}

	for _, m := range res.metrics {
		report.Metrics[m.name] = reportMetric{m.unit, m.value, m.samples, m.p25, m.median, m.p75}
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, n := range names {
		v, ok := report.Metrics[n.name]
		if !ok {
			v.Unit = n.unit // a layer this workload does not exercise: no samples, reads 0
		}
		final.Metrics[n.name] = value{v.Value, v.Unit}
	}
	enc := json.NewEncoder(out)
	_ = enc.Encode(map[string]any{"report": report})
	_ = enc.Encode(final)
}
