package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/persist"
)

// canonQuery runs a query and renders its solutions as a sorted
// multiset for comparison.
func canonQuery(t *testing.T, ts *stServer, pattern []PatternJSON) string {
	t.Helper()
	qr, code := postQuery(t, ts.ts, QueryRequest{Pattern: pattern, NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	return fmt.Sprint(canonMaps(qr.solutions()))
}

type stServer struct {
	srv *Server
	ts  *httptest.Server
	db  *persist.DB
}

// TestLiveMmapDifferential drives an identical mutation/checkpoint
// schedule through a plain live server and an Mmap one: after every
// phase — including the checkpoint that swaps heap rings for view-loaded
// mappings — both must answer every query identically.
func TestLiveMmapDifferential(t *testing.T) {
	mk := func(mmap bool) *stServer {
		srv, ts, db := newLiveServer(t, persist.Options{
			MemtableThreshold: 8, MaxRings: 64, NoBackground: true, Mmap: mmap,
		})
		return &stServer{srv: srv, ts: ts, db: db}
	}
	plain, mapped := mk(false), mk(true)
	servers := []*stServer{plain, mapped}

	queries := [][]PatternJSON{
		{{S: "?x", P: "knows", O: "?y"}},
		{{S: "?x", P: "knows", O: "?y"}, {S: "?y", P: "knows", O: "?z"}},
		{{S: "?x", P: "?p", O: "?y"}},
	}
	check := func(phase string) {
		t.Helper()
		for qi, q := range queries {
			want := canonQuery(t, plain, q)
			got := canonQuery(t, mapped, q)
			if got != want {
				t.Fatalf("%s query %d: mmap %q, plain %q", phase, qi, got, want)
			}
		}
	}

	insert := func(trs []TripleJSON) {
		t.Helper()
		for _, s := range servers {
			if _, code := postMutation(t, s.ts, "/insert", MutationRequest{Triples: trs}); code != http.StatusOK {
				t.Fatalf("insert: status %d", code)
			}
		}
	}

	var batch []TripleJSON
	for i := 0; i < 20; i++ {
		batch = append(batch, TripleJSON{S: fmt.Sprintf("n%d", i), P: "knows", O: fmt.Sprintf("n%d", (i+1)%20)})
	}
	insert(batch)
	check("after inserts")

	for _, s := range servers {
		if err := s.db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	check("after checkpoint swap")
	st := mapped.db.Stats()
	if st.MappedRings == 0 {
		t.Fatal("mmap server has no mapped rings after checkpoint")
	}

	// Mutate across the installed views, checkpoint again, delete some.
	insert([]TripleJSON{{S: "n0", P: "likes", O: "n5"}, {S: "n5", P: "likes", O: "n9"}})
	check("after post-swap inserts")
	for _, s := range servers {
		if _, code := postMutation(t, s.ts, "/delete", MutationRequest{Triples: []TripleJSON{
			{S: "n1", P: "knows", O: "n2"},
		}}); code != http.StatusOK {
			t.Fatalf("delete: status %d", code)
		}
		if err := s.db.Checkpoint(); err != nil {
			t.Fatalf("second Checkpoint: %v", err)
		}
	}
	check("after delete and second checkpoint")
}

// TestLiveMmapObservability checks the serving metrics of the zero-copy
// path: /metrics must report the mmap load mode, a mapped byte count and
// a snapshot install time, and /stats must carry the mapped section.
func TestLiveMmapObservability(t *testing.T) {
	_, ts, db := newLiveServer(t, persist.Options{
		MemtableThreshold: 8, MaxRings: 64, NoBackground: true, Mmap: true,
	})
	var batch []TripleJSON
	for i := 0; i < 20; i++ {
		batch = append(batch, TripleJSON{S: fmt.Sprintf("n%d", i), P: "p", O: "o"})
	}
	if _, code := postMutation(t, ts, "/insert", MutationRequest{Triples: batch}); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`ringserve_index_load_mode{mode="mmap"} 1`,
		"ringserve_index_bytes_mapped",
		"ringserve_snapshot_install_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	stats := string(sbody)
	for _, want := range []string{`"mapped"`, `"mode":"mmap"`, `"bytes_mapped"`} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q; body: %s", want, stats)
		}
	}
}
