package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestShortRuns runs every workload on tiny inputs, untraced and traced,
// with every oracle check on, and checks the result line's contract.
func TestShortRuns(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: time.Second, trace: trace, short: true, tmpDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(res.wrong) > 0 {
				t.Errorf("%s trace=%v: wrong answers: %v", name, trace, res.wrong)
			}
			if res.attempted == 0 {
				t.Errorf("%s trace=%v: attempted nothing", name, trace)
			}
			checkResultLine(t, cfg, res)
		}
	}
}

func checkResultLine(t *testing.T, cfg config, res *result) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	printResult(f, cfg, res)
	f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("%s: bad result line %q: %v", cfg.workload, lines[len(lines)-1], err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", cfg.workload, cfg.trace, len(last.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := last.Metrics[m.name]; !ok {
			t.Errorf("%s trace=%v: metric %s missing", cfg.workload, cfg.trace, m.name)
		}
	}
	if !cfg.trace {
		for _, m := range want {
			var v struct{ Value float64 }
			if err := json.Unmarshal(last.Metrics[m.name], &v); err != nil || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %s, want > 0", cfg.workload, m.name, last.Metrics[m.name])
			}
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// program's metric lists in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestDecodeResponseShapes(t *testing.T) {
	bodies := []string{
		`{"solutions":[{"x":"e1","y":"e2"},{"x":"e3","y":"e4"}],"count":2,"elapsed_ms":0.5,"cached":true}`,
		`{"solutions":{"vars":["x","y"],"rows":[["e1","e2"],["e3","e4"]]},"count":2,"elapsed_ms":0.5,"cached":true}`,
		`{"vars":["x","y"],"rows":[["e1","e2"],["e3","e4"]],"count":2,"elapsed_ms":0.5,"cached":true}`,
	}
	for _, body := range bodies {
		r, err := decodeResponse([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		rows, err := r.rows()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if r.count != 2 || !r.cached || r.elapsedMS != 0.5 || len(rows) != 2 || rows[1]["x"] != "e3" || rows[1]["y"] != "e4" {
			t.Errorf("%s: decoded %+v rows %v", body, r, rows)
		}
	}
}

// TestDeleteStreamMatchesOracle keeps the writer's delete requests and
// the read and reopen checks' view of them (deletion) in step, old
// victims included, which the short runs are too brief to reach.
func TestDeleteStreamMatchesOracle(t *testing.T) {
	never := func(int) bool { return false }
	const inserts = 4 * liveOldLag
	sent := map[server.TripleJSON]int{}
	for d := 0; d < inserts; d++ {
		for _, tr := range deleteRequest(d, never) {
			if prev, dup := sent[tr]; dup {
				t.Fatalf("%v deleted by requests %d and %d", tr, prev, d)
			}
			sent[tr] = d
		}
	}
	old := 0
	for k := 0; k < inserts; k++ {
		for j := 0; j < liveSubjects; j++ {
			d, n, ok := deletion(k, j)
			if ok && j == liveOldSubject {
				old++
			}
			for i, tr := range writtenTriples(k, j) {
				got, deleted := sent[tr]
				want := ok && i < n && d < inserts
				if deleted != want || (want && got != d) {
					t.Fatalf("batch %d subject %d triple %d: sent by %d (%v), deletion says %d (%v)", k, j, i, got, deleted, d, want)
				}
			}
		}
	}
	if old == 0 {
		t.Fatal("no delete reaches an old subject")
	}
}
