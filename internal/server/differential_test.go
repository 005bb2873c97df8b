package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	wcoring "repro"
	"repro/internal/ltj"
	"repro/internal/query"
)

// The /query differential: every request kind and response path must
// decode to the solutions the per-solution map encoder served —
// query.Select.Run over the index, Dictionary.DecodeBinding per
// solution, encoding/json over the maps. mapOracle is that encoder, kept
// here as the reference the columnar body is held to. Request kinds,
// cache hits and infeasible queries are checked below; shared-scan
// followers in TestSharedScanVariantViews, timed-out partial results in
// TestDeadlineExceeded.

// diffStore mixes the terms JSON escaping cares about (quotes,
// backslashes, HTML characters, control characters, invalid UTF-8,
// U+2028) with a 40-node chain, so offset/limit pages cross many rows.
func diffStore(t testing.TB) *wcoring.Store {
	t.Helper()
	triples := []wcoring.StringTriple{
		{S: `q"uote`, P: "knows", O: `back\slash`},
		{S: `back\slash`, P: "knows", O: "<a&b>"},
		{S: "<a&b>", P: "likes", O: "ctl\x01\x1f"},
		{S: "bad\xffutf8", P: "line\u2028sep", O: "ünï ✓"},
		{S: "ünï ✓", P: "knows", O: `q"uote`},
	}
	for i := 0; i < 40; i++ {
		n := fmt.Sprintf("n%02d", i)
		triples = append(triples,
			wcoring.StringTriple{S: n, P: "next", O: fmt.Sprintf("n%02d", i+1)},
			wcoring.StringTriple{S: n, P: []string{"knows", "likes", "next"}[i%3], O: `q"uote`},
		)
	}
	st, err := wcoring.NewStore(triples, wcoring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mapOracle evaluates req directly and renders it the way the map-shaped
// response did: one DecodeBinding map per solution, through
// encoding/json and back.
func mapOracle(t testing.TB, st *wcoring.Store, req QueryRequest, limit int) []map[string]string {
	t.Helper()
	encoded, predVars, feasible, err := st.Compile(req.patternStrings())
	if err != nil {
		t.Fatal(err)
	}
	maps := []map[string]string{}
	if feasible {
		sel := query.Select{Pattern: encoded, Project: req.Project, Distinct: req.Distinct,
			OrderBy: req.OrderBy, Offset: req.Offset, Limit: limit}
		sols, err := sel.Run(ltj.IndexFunc(staticIndex{st}.PatternIters()))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sols {
			maps = append(maps, st.Dictionary().DecodeBinding(b, predVars))
		}
	}
	raw, err := json.Marshal(maps)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkAgainstOracle compares a response with the oracle's solutions: as
// ordered sequences when ordered, else as multisets.
func checkAgainstOracle(t *testing.T, name string, qr *QueryResponse, req QueryRequest, want []map[string]string, ordered bool) {
	t.Helper()
	if wantVars := req.resultVars(); !reflect.DeepEqual(qr.Vars, wantVars) {
		t.Fatalf("%s: vars %q, want %q", name, qr.Vars, wantVars)
	}
	if qr.Count != len(qr.Rows) {
		t.Fatalf("%s: count %d for %d rows", name, qr.Count, len(qr.Rows))
	}
	got := qr.solutions()
	if !ordered {
		got, want = canonMaps(got), canonMaps(want)
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: columnar rows differ from the map encoder:\ngot  %v\nwant %v", name, got, want)
	}
}

// canonMaps sorts solutions into a canonical order for multiset
// comparison.
func canonMaps(ms []map[string]string) []map[string]string {
	key := func(m map[string]string) string {
		kv := make([]string, 0, len(m))
		for k, v := range m {
			kv = append(kv, k+"\x00"+v)
		}
		sort.Strings(kv)
		return strings.Join(kv, "\x01")
	}
	out := append([]map[string]string(nil), ms...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

func TestQueryDifferentialRequestKinds(t *testing.T) {
	st := diffStore(t)
	_, ts := newTestServer(t, Config{Store: st})
	pat := func(ps ...[3]string) []PatternJSON {
		out := make([]PatternJSON, len(ps))
		for i, p := range ps {
			out[i] = PatternJSON{S: p[0], P: p[1], O: p[2]}
		}
		return out
	}
	chain := pat([3]string{"?x", "next", "?y"}, [3]string{"?y", "?p", "?z"})
	cases := []struct {
		name    string
		req     QueryRequest
		ordered bool
	}{
		{"all vars", QueryRequest{Pattern: chain}, false},
		{"projection", QueryRequest{Pattern: chain, Project: []string{"z", "x"}}, false},
		{"distinct", QueryRequest{Pattern: chain, Project: []string{"z"}, Distinct: true}, false},
		{"order by", QueryRequest{Pattern: chain, OrderBy: []string{"z", "x"}}, true},
		{"order by page", QueryRequest{Pattern: chain, OrderBy: []string{"x"}, Offset: 7, Limit: 9}, true},
		{"offset page", QueryRequest{Pattern: chain, Offset: 5, Limit: 11}, false},
		{"distinct order page", QueryRequest{Pattern: chain, Project: []string{"p"}, Distinct: true, OrderBy: []string{"p"}, Offset: 1, Limit: 1}, true},
		{"predicate var", QueryRequest{Pattern: pat([3]string{"?s", "?p", "?o"})}, false},
		{"escaped terms", QueryRequest{Pattern: pat([3]string{"?a", "knows", "?b"}, [3]string{"?b", "?p", "?c"})}, false},
		{"escaped constant", QueryRequest{Pattern: pat([3]string{"?a", "?p", `q"uote`})}, false},
		{"infeasible", QueryRequest{Pattern: pat([3]string{"zeus", "knows", "?y"}, [3]string{"?y", "?p", "?x"})}, false},
		{"infeasible projected", QueryRequest{Pattern: pat([3]string{"?x", "?p", "zeus"}), Project: []string{"p"}}, false},
		{"infeasible predicate", QueryRequest{Pattern: pat([3]string{"?x", "nosuch", "?y"})}, false},
	}
	for _, tc := range cases {
		limit := effectiveLimit(tc.req.Limit, 1000, 100000)
		want := mapOracle(t, st, tc.req, limit)
		if strings.HasPrefix(tc.name, "infeasible") && len(want) != 0 {
			t.Fatalf("%s: oracle found %d solutions", tc.name, len(want))
		}
		// Miss (fills the cache), hit, and a no_cache evaluation.
		miss, code := postQuery(t, ts, tc.req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, code)
		}
		checkAgainstOracle(t, tc.name+" (miss)", miss, tc.req, want, tc.ordered)
		hit, _ := postQuery(t, ts, tc.req)
		if !strings.HasPrefix(tc.name, "infeasible") && !hit.Cached {
			t.Fatalf("%s: repeat was not a cache hit", tc.name)
		}
		checkAgainstOracle(t, tc.name+" (hit)", hit, tc.req, want, tc.ordered)
		if !sameResult(hit, miss) {
			t.Fatalf("%s: cache hit differs from the miss that filled it", tc.name)
		}
		nc := tc.req
		nc.NoCache = true
		solo, _ := postQuery(t, ts, nc)
		checkAgainstOracle(t, tc.name+" (no_cache)", solo, tc.req, want, tc.ordered)
	}
}
