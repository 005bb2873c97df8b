package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wgpb"
)

// metricName is one named, unit-carrying metric of BENCHMARK.json.
type metricName struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them with --trace 0.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"query_cpu_ms", "ms"},
	{"query_success_ratio", "ratio"},
	{"bytes_per_triple", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the layer metrics of the traced run. A workload that does
// not exercise a layer reports its metrics as 0 (no samples). serve-live's
// write, persist and dynamic metrics are in its report line only: that
// workload is not in BENCHMARK.json (see README.md).
var perLayer = func() []metricName {
	ms := []metricName{
		{"query_p50_ms", "ms"},
		{"query_p99_ms", "ms"},
		{"queries_per_s", "1/s"},
		{"setup_wall_s", "s"},
		{"trace.overhead_ratio", "ratio"},
		{"cring_query_p50_ms", "ms"},
		{"wavelet.rank_ns", "ns"},
		{"wavelet.select_ns", "ns"},
		{"wavelet.range_next_ns", "ns"},
		{"wavelet.intersect_ns_per_emit", "ns"},
		{"cring.wavelet.rank_ns", "ns"},
		{"cring.wavelet.range_next_ns", "ns"},
		{"ring.leap_calls_per_query", "count"},
		{"ring.leap_ns", "ns"},
		{"ring.bind_ns", "ns"},
		{"ring.leap_run_calls_per_query", "count"},
		{"ring.enumerated_per_query", "count"},
		{"ltj.leaps_per_solution", "count"},
		{"ltj.seeks_per_query", "count"},
		{"ltj.batch_descents_per_query", "count"},
		{"ltj.batch_emits_per_descent", "count"},
		{"ltj.self_ms_per_query", "ms"},
	}
	for _, s := range wgpb.Shapes {
		ms = append(ms, metricName{"ltj.shape." + s.Name + ".p50_ms", "ms"})
	}
	return append(ms, []metricName{
		{"dict.compile_us", "us"},
		{"dict.decode_ns_per_solution", "ns"},
		{"query.run_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.hit_ms_p50", "ms"},
		{"server.miss_ms_p50", "ms"},
		{"server.shared_ratio", "ratio"},
		{"server.shed_ratio", "ratio"},
		{"server.elapsed_ms_p50", "ms"},
		{"server.outside_ms_p50", "ms"},
		{"server.response_bytes_per_solution", "B"},
		{"process.allocs_per_query", "count"},
		{"process.gc_cpu_fraction", "ratio"},
		{"load.index_s", "s"},
		{"load.first_query_ms", "ms"},
	}...)
}()

// metric is one reported value with the distribution it came from.
type metric struct {
	name, unit       string
	value            float64
	samples          int
	p25, median, p75 float64
}

// scalar reports a single measured value (a count, a ratio, a size).
func scalar(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v, samples: 1}
}

// samples is a set of timings in one unit.
type samples []float64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile interpolates linearly between order statistics; s must be
// sorted.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// at reports quantile q of the samples as the metric's value, with the
// quartiles alongside.
func (s samples) at(name, unit string, q float64) metric {
	o := s.sorted()
	return metric{name: name, unit: unit, value: o.quantile(q), samples: len(o),
		p25: o.quantile(0.25), median: o.quantile(0.5), p75: o.quantile(0.75)}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setupTimer measures one set-up: the process's CPU seconds, which give
// setup_s (free of stolen CPU and at the reference pace, see cpu.go), and
// the wall-clock seconds. The pace probes run just before and after each
// set-up.
type setupTimer struct {
	cpu, wall samples
	pace      pacer
}

// setupProbes is the number of pace probes on each side of a set-up.
const setupProbes = 8

func (t *setupTimer) time(f func() error) error {
	t.probe()
	runtime.GC()
	c0, w0 := processCPU(), time.Now()
	err := f()
	t.cpu = append(t.cpu, (processCPU() - c0).Seconds())
	t.wall = append(t.wall, time.Since(w0).Seconds())
	t.probe()
	return err
}

func (t *setupTimer) probe() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < setupProbes; i++ {
		t.pace.probe()
	}
}

func (t *setupTimer) metrics() []metric {
	return append(t.pace.scale(t.cpu.at("setup_s", "s", 0.5)), t.wall.at("setup_wall_s", "s", 0.5))
}

// procCounters snapshots the runtime's allocation and CPU accounting so a
// phase can report allocations per query, the GC's share of CPU, the
// process's CPU time per query and the host's steal over the phase.
type procCounters struct {
	allocs, gcCPU, totalCPU float64
	cpu                     time.Duration
	steal, jiffies          float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	steal, jiffies := hostSteal()
	return procCounters{val(0), val(1), val(2), processCPU(), steal, jiffies}
}

// hostSteal reads the host-wide steal and total CPU jiffies.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procMetrics reports allocations per query, the GC CPU fraction and the
// host's steal between two snapshots.
func procMetrics(a, b procCounters, queries int) []metric {
	return []metric{
		scalar("process.allocs_per_query", "count", ratio(b.allocs-a.allocs, float64(queries))),
		scalar("process.gc_cpu_fraction", "ratio", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)),
		scalar("host.steal_ratio", "ratio", ratio(b.steal-a.steal, b.jiffies-a.jiffies)),
	}
}
