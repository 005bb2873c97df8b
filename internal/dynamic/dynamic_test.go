package dynamic

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
	"repro/internal/testutil"
)

func randomTriple(rng *rand.Rand) graph.Triple {
	return graph.Triple{
		S: graph.ID(rng.Intn(30)),
		P: graph.ID(rng.Intn(4)),
		O: graph.ID(rng.Intn(30)),
	}
}

func TestAddAndQueryMatchesStaticRing(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	s := New(Options{MemtableThreshold: 64, MaxRings: 3})
	var inserted []graph.Triple
	for i := 0; i < 1000; i++ {
		tr := randomTriple(rng)
		s.Add(tr)
		inserted = append(inserted, tr)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	g := graph.New(inserted)
	if s.Len() != g.Len() {
		t.Fatalf("Len = %d, want %d distinct", s.Len(), g.Len())
	}
	if s.Rings() > 3 {
		t.Fatalf("ring budget exceeded: %d rings", s.Rings())
	}

	// Queries over the dynamic store must match a static ring built from
	// the same triples.
	static := ring.New(g, ring.Options{})
	staticIdx := ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return static.NewPatternState(tp)
	})
	for trial := 0; trial < 80; trial++ {
		q := testutil.RandomPattern(rng, g, 1+rng.Intn(3), 1+rng.Intn(3), 0.4, false)
		want, err := ltj.Evaluate(staticIdx, q, ltj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Evaluate(q, ltj.Options{})
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if diff := testutil.SameSolutions(got.Solutions, want.Solutions, q.Vars()); diff != "" {
			t.Fatalf("query %v: %s", q, diff)
		}
	}
}

func TestDuplicateInsertsIgnored(t *testing.T) {
	s := New(Options{MemtableThreshold: 10})
	tr := graph.Triple{S: 1, P: 0, O: 2}
	s.Add(tr)
	s.Add(tr)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert", s.Len())
	}
	// Duplicate across the memtable/ring boundary.
	for i := 0; i < 20; i++ {
		s.Add(graph.Triple{S: graph.ID(i), P: 1, O: graph.ID(i)})
	}
	before := s.Len()
	s.Add(tr)
	if s.Len() != before {
		t.Fatal("duplicate of a flushed triple was counted")
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	s := New(Options{MemtableThreshold: 32, MaxRings: 2})
	set := map[graph.Triple]bool{}
	for i := 0; i < 300; i++ {
		tr := randomTriple(rng)
		s.Add(tr)
		set[tr] = true
	}
	// Delete half of them (some in the memtable, most in rings).
	removed := 0
	for tr := range set {
		if removed >= len(set)/2 {
			break
		}
		if !s.Delete(tr) {
			t.Fatalf("Delete(%v) failed for a present triple", tr)
		}
		delete(set, tr)
		removed++
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(set) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(set))
	}
	for tr := range set {
		if !s.Contains(tr) {
			t.Fatalf("remaining triple %v missing", tr)
		}
	}
	if s.Delete(graph.Triple{S: 99, P: 3, O: 99}) {
		t.Error("Delete of absent triple reported success")
	}
}

// TestApplyBatchOneEpoch: a batch of deletes spread over the memtable
// and several static rings, with inserts interleaved, is published as
// one epoch — Generation advances by exactly one — and applies in
// order: a triple deleted and then re-inserted in the same batch stays,
// one inserted and then deleted does not.
func TestApplyBatchOneEpoch(t *testing.T) {
	s := New(Options{MemtableThreshold: 16, MaxRings: 8})
	var ts []graph.Triple
	for i := 0; i < 70; i++ {
		ts = append(ts, graph.Triple{S: graph.ID(i), P: graph.ID(i % 3), O: graph.ID(i + 1)})
	}
	// Each batch reaching the threshold flushes: rings of 20, 20 and 16
	// triples, and 6 left in the memtable.
	for _, b := range [][2]int{{0, 20}, {20, 40}, {40, 50}, {50, 56}, {56, 62}} {
		s.AddBatch(ts[b[0]:b[1]])
	}
	if s.Rings() != 3 || s.MemtableLen() != 6 {
		t.Fatalf("layout: %d rings, %d buffered; want 3 and 6", s.Rings(), s.MemtableLen())
	}
	var batch []Mutation
	want := map[graph.Triple]bool{}
	for _, tr := range ts[:62] {
		want[tr] = true
	}
	for i := 0; i < 62; i += 5 { // every fifth triple, from every component
		batch = append(batch, Mutation{T: ts[i], Delete: true})
		delete(want, ts[i])
	}
	fresh := graph.Triple{S: 500, P: 1, O: 501}
	batch = append(batch,
		Mutation{T: ts[5]},                // deleted above, re-inserted
		Mutation{T: fresh},                // inserted ...
		Mutation{T: fresh, Delete: true},  // ... and deleted again
		Mutation{T: ts[0], Delete: true},  // already gone in this batch
		Mutation{T: ts[65], Delete: true}, // never stored
	)
	want[ts[5]] = true
	gen := s.Generation()
	ins, del := s.Apply(batch)
	if got := s.Generation() - gen; got != 1 {
		t.Fatalf("batch advanced Generation by %d, want 1", got)
	}
	if ins != 2 || del != 14 {
		t.Fatalf("Apply = (%d inserted, %d deleted), want (2, 14)", ins, del)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	got := map[graph.Triple]bool{}
	for _, tr := range s.Snapshot().Triples() {
		got[tr] = true
	}
	if len(got) != len(want) || s.Len() != len(want) {
		t.Fatalf("store holds %d triples (Len %d), want %d", len(got), s.Len(), len(want))
	}
	for tr := range want {
		if !got[tr] {
			t.Fatalf("triple %v missing after the batch", tr)
		}
	}
}

func TestCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	s := New(Options{MemtableThreshold: 16, MaxRings: 5})
	for i := 0; i < 200; i++ {
		s.Add(randomTriple(rng))
	}
	n := s.Len()
	s.Compact()
	if s.Rings() != 1 || s.MemtableLen() != 0 {
		t.Fatalf("after Compact: %d rings, %d buffered", s.Rings(), s.MemtableLen())
	}
	if s.Len() != n {
		t.Fatalf("Compact changed Len: %d -> %d", n, s.Len())
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFromGraph(t *testing.T) {
	g := testutil.PaperGraph()
	s := FromGraph(g, Options{})
	if s.Len() != g.Len() || s.Rings() != 1 {
		t.Fatalf("FromGraph: len %d rings %d", s.Len(), s.Rings())
	}
	// Add more data and query across the boundary.
	s.Add(graph.Triple{S: 0, P: 2, O: 5}) // Bohr win Nobel (nonsense but new)
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Var("x"), graph.Const(2), graph.Var("y")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 5 { // 4 original winners + 1 new
		t.Fatalf("got %d win edges, want 5", len(res.Solutions))
	}
}

func TestLonelyEnumerationAcrossComponents(t *testing.T) {
	// A query whose lonely variable spans the memtable and a ring: the
	// union enumeration must merge and deduplicate.
	s := New(Options{MemtableThreshold: 4})
	s.AddBatch([]graph.Triple{
		{S: 1, P: 0, O: 2}, {S: 1, P: 0, O: 3}, {S: 1, P: 0, O: 4}, {S: 1, P: 0, O: 5},
	}) // flushes into a ring
	s.Add(graph.Triple{S: 1, P: 0, O: 6}) // stays in the memtable
	s.Add(graph.Triple{S: 1, P: 0, O: 2}) // duplicate of a ring triple
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Const(1), graph.Const(0), graph.Var("o")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 5 {
		t.Fatalf("got %d objects, want 5 (deduplicated)", len(res.Solutions))
	}
}

func TestEmptyStore(t *testing.T) {
	s := New(Options{})
	res, err := s.Evaluate(graph.Pattern{
		graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("o")),
	}, ltj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Error("empty store yielded solutions")
	}
	if s.Delete(graph.Triple{}) {
		t.Error("Delete on empty store succeeded")
	}
}

func TestManyFlushesKeepRingBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	s := New(Options{MemtableThreshold: 8, MaxRings: 2})
	for i := 0; i < 400; i++ {
		s.Add(graph.Triple{
			S: graph.ID(rng.Intn(100)), P: graph.ID(rng.Intn(3)), O: graph.ID(rng.Intn(100)),
		})
		if s.Rings() > 2 {
			t.Fatalf("ring budget exceeded at step %d: %d rings", i, s.Rings())
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
