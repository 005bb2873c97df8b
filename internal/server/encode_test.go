package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/ltj"
)

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `a"quote`, `back\slash`, "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "<script>&amp;</script>", "ünïcödé ✓ 😀",
		"bad\xffutf8", "\xc3", "\xed\xa0\x80", "line\u2028para\u2029end",
		"http://example.org/a#b", strings.Repeat("x", 300),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix:")
		got := appendJSONString(append([]byte(nil), prefix...), s)
		if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[len(prefix):], want)
		}
	})
}

// TestAppendRowsMatchesMapEncoder is the encoder-level differential: for
// the same solutions, the columnar fragment decodes to exactly the
// variable→term maps the per-solution map encoder (DecodeBinding, then
// projection, then encoding/json) produced, in the same order.
func TestAppendRowsMatchesMapEncoder(t *testing.T) {
	d, _ := dict.Build([]dict.StringTriple{
		{S: `q"uote`, P: "p<&>", O: `back\slash`},
		{S: "bad\xffutf8", P: "line\u2028sep", O: "ctl\x01\x1f"},
		{S: "ünï ✓", P: "plain", O: "tab\there"},
	})
	sols := []graph.Binding{
		{"x": 0, "p": 0, "y": 1},
		{"x": 2, "p": 1, "y": 3},
		{"x": 4, "p": 2, "y": 5},
		{"x": 5, "p": 1, "y": 0},
		{"x": 99, "p": 77, "y": 0}, // IDs outside the tables
	}
	predVars := map[string]bool{"p": true}
	for _, vars := range [][]string{{"x", "p", "y"}, {"y"}, {"p", "x"}, {}} {
		// The map encoder.
		maps := make([]map[string]string, len(sols))
		for i, b := range sols {
			m := d.DecodeBinding(b, predVars)
			proj := make(map[string]string, len(vars))
			for _, v := range vars {
				proj[v] = m[v]
			}
			maps[i] = proj
		}
		raw, err := json.Marshal(maps)
		if err != nil {
			t.Fatal(err)
		}
		var want []map[string]string
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}

		body := resultMeta{}.appendTail(encodeRows(vars, predVars, d.Terms(), sols))
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("vars %v: invalid JSON %s: %v", vars, body, err)
		}
		if !reflect.DeepEqual(qr.Vars, vars) || qr.Count != len(sols) {
			t.Fatalf("vars %v: decoded vars %v count %d", vars, qr.Vars, qr.Count)
		}
		if got := qr.solutions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("vars %v:\ncolumnar: %v\nmaps:     %v", vars, got, want)
		}
	}
}

// TestWriteRowsBody pins the wire shape of a whole response: valid JSON,
// the documented field names, a Content-Length that matches, and the
// optional fields present only when set.
func TestWriteRowsBody(t *testing.T) {
	d, _ := dict.Build([]dict.StringTriple{{S: "a", P: "p", O: "b"}})
	rows := encodeRows([]string{"s", "o"}, nil, d.Terms(), []graph.Binding{{"s": 0, "o": 1}})
	for _, m := range []resultMeta{
		{elapsedMS: 0.25},
		{elapsedMS: 1e-7, cached: true},
		{elapsedMS: 12, timedOut: true, shared: true, stats: &ltj.EvalStats{Leaps: 1, Binds: 2, Seeks: 3, Enumerations: 4, BatchDescents: 5, BatchEmits: 6}},
	} {
		rec := httptest.NewRecorder()
		writeRows(rec, rows, m)
		body := rec.Body.Bytes()
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("Content-Length %s for a %d-byte body", got, len(body))
		}
		var generic map[string]json.RawMessage
		if err := json.Unmarshal(body, &generic); err != nil {
			t.Fatalf("invalid JSON %s: %v", body, err)
		}
		for _, k := range []string{"vars", "rows", "count", "elapsed_ms", "cached"} {
			if _, ok := generic[k]; !ok {
				t.Fatalf("body %s lacks %q", body, k)
			}
		}
		for k, set := range map[string]bool{"timed_out": m.timedOut, "shared": m.shared, "stats": m.stats != nil} {
			if _, ok := generic[k]; ok != set {
				t.Fatalf("body %s: %q present = %v, want %v", body, k, ok, set)
			}
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.ElapsedMS != m.elapsedMS || qr.Cached != m.cached || !reflect.DeepEqual(qr.Rows, [][]string{{"a", "b"}}) {
			t.Fatalf("decoded %+v from %s", qr, body)
		}
		if m.stats != nil && (qr.Stats == nil || *qr.Stats != (StatsJSON{1, 2, 3, 4, 5, 6})) {
			t.Fatalf("stats decoded as %+v", qr.Stats)
		}
	}
}
