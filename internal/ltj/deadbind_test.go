package ltj

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

// Dead-bind elimination: the engine binds a variable's value only in the
// iterators that a later variable of the elimination order reads. The
// bindSpy below wraps every ring iterator and reports any Bind that
// breaks this rule.

// spyRecorder collects what every spy of one evaluation saw, across the
// goroutines of a parallel run.
type spyRecorder struct {
	depth map[string]int // variable → position in the elimination order

	mu         sync.Mutex
	violations []string
	forkLog    *bindLog // the log the forks of the worker being set up join
}

func (r *spyRecorder) violate(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 5 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// bindLog is the call sequence of the iterators one goroutine drives
// (plus, sequentially, the emitted solutions). It tells a transient
// Bind…Unbind on one iterator apart from a Bind held while the search
// moved on to other iterators.
type bindLog struct {
	seq      int
	actor    *bindSpy // who made the last call (nil: an emitted solution)
	runStart int      // seq at which actor's current unbroken run began
}

func (l *bindLog) tick(s *bindSpy) {
	l.seq++
	if l.actor != s {
		l.actor, l.runStart = s, l.seq
	}
}

type spyBind struct {
	name string
	dead bool
	seq  int
}

// bindSpy wraps one iterator. A Bind of variable x is dead when no
// variable after x in the order occurs in the spy's pattern. A dead Bind
// may only be transient — undone before any other iterator is touched or
// any solution emitted — and outside the ringdebug build only for a
// variable at several positions of the pattern: that is leapVar's
// leap-then-verify check, and under ringdebug the dead-bind probe.
type bindSpy struct {
	PatternIter
	rec       *spyRecorder
	log       *bindLog
	tp        graph.TriplePattern
	first     bool // first non-ground pattern of the query
	lastDepth int  // last depth of the order that reads this pattern
	open      []spyBind
}

func (s *bindSpy) Count() int  { s.log.tick(s); return s.PatternIter.Count() }
func (s *bindSpy) Empty() bool { s.log.tick(s); return s.PatternIter.Empty() }
func (s *bindSpy) CanEnumerate(pos graph.Position) bool {
	s.log.tick(s)
	return s.PatternIter.CanEnumerate(pos)
}

func (s *bindSpy) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	s.log.tick(s)
	return s.PatternIter.Leap(pos, c)
}

func (s *bindSpy) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	s.log.tick(s)
	s.PatternIter.Enumerate(pos, visit)
}

func (s *bindSpy) LeapRun(pos graph.Position) (wavelet.MatrixRange, bool) {
	s.log.tick(s)
	rl, ok := s.PatternIter.(trieiter.RunLeaper)
	if !ok {
		return wavelet.MatrixRange{}, false
	}
	return rl.LeapRun(pos)
}

func (s *bindSpy) Bind(pos graph.Position, c graph.ID) {
	s.log.tick(s)
	name := s.tp.Term(pos).Name
	dead := s.rec.depth[name] >= s.lastDepth
	if dead && !ringdebugEnabled && len(s.tp.Positions(name)) < 2 {
		s.rec.violate("Bind(?%s=%d) on %v, which no later variable reads", name, c, s.tp)
	}
	s.open = append(s.open, spyBind{name: name, dead: dead, seq: s.log.seq})
	s.PatternIter.Bind(pos, c)
}

func (s *bindSpy) Unbind() {
	s.log.tick(s)
	b := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	if b.dead && !(s.log.actor == s && s.log.runStart <= b.seq) {
		s.rec.violate("dead Bind of ?%s on %v held while the search moved on", b.name, s.tp)
	}
	s.PatternIter.Unbind()
}

// Fork hands a parallel worker a spy over a forked iterator. The engine
// forks the patterns worker by worker, in query order, before any worker
// starts, so a fork of the first pattern opens the next worker's log.
func (s *bindSpy) Fork() trieiter.Iter {
	inner := s.PatternIter.(ForkableIter).Fork()
	if inner == nil {
		return nil
	}
	if s.first {
		s.rec.forkLog = &bindLog{}
	}
	return &bindSpy{PatternIter: inner, rec: s.rec, log: s.rec.forkLog, tp: s.tp,
		first: s.first, lastDepth: s.lastDepth}
}

// engineOrder is the elimination order the engine picks for q under opt.
func engineOrder(t *testing.T, idx Index, q graph.Pattern, opt Options) []string {
	t.Helper()
	e := &evaluator{opt: opt}
	for _, tp := range q {
		if len(tp.Vars()) > 0 {
			e.pats = append(e.pats, patternEntry{tp: tp, it: idx.NewPatternIter(tp)})
		}
	}
	order, err := e.chooseOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// spyIndex wraps every iterator of r in a bindSpy for an evaluation
// under the given order.
func spyIndex(r *ring.Ring, order []string, rec *spyRecorder, log *bindLog) Index {
	rec.depth = map[string]int{}
	for j, v := range order {
		rec.depth[v] = j
	}
	firstSeen := false
	return IndexFunc(func(tp graph.TriplePattern) PatternIter {
		s := &bindSpy{PatternIter: r.NewPatternState(tp), rec: rec, log: log, tp: tp, lastDepth: -1}
		for _, v := range tp.Vars() {
			if d := rec.depth[v]; d > s.lastDepth {
				s.lastDepth = d
			}
		}
		if len(tp.Vars()) > 0 && !firstSeen {
			s.first, firstSeen = true, true
		}
		return s
	})
}

// TestNoDeadBinds runs random queries, repeated variables included,
// through every lane with every iterator spied on: no Bind may land on an
// iterator that no later variable reads, and the solutions must match the
// naive evaluator. Each query runs under the engine's own order and
// under a random one (which puts lonely variables anywhere).
func TestNoDeadBinds(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomGraph(rng, 200, 14, 3)
	r := ring.New(g, ring.Options{})
	lanes := []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"no-lonely", Options{DisableLonely: true}},
		{"batch-threshold-1", Options{BatchThreshold: 1}},
		{"no-batch", Options{DisableBatch: true}},
		{"parallel-2", Options{Parallelism: 2}},
	}
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			for trial := 0; trial < 120; trial++ {
				q := testutil.RandomPattern(rng, g, 1+rng.Intn(4), 1+rng.Intn(4), 0.3, true)
				want := g.Evaluate(q, 0)
				order := engineOrder(t, ringIndex(g, ring.Options{}), q, lane.opt)
				random := append([]string(nil), order...)
				rng.Shuffle(len(random), func(a, b int) { random[a], random[b] = random[b], random[a] })
				for _, ord := range [][]string{order, random} {
					rec := &spyRecorder{}
					log := &bindLog{}
					opt := lane.opt
					opt.Order = ord
					var got []graph.Binding
					err := Stream(spyIndex(r, ord, rec, log), q, opt, func(b graph.Binding) bool {
						if opt.Parallelism <= 1 {
							log.tick(nil) // solutions are emitted on the search goroutine
						}
						got = append(got, b.Clone())
						return true
					})
					if err != nil {
						t.Fatalf("trial %d query %v order %v: %v", trial, q, ord, err)
					}
					if diff := testutil.SameSolutions(got, want, q.Vars()); diff != "" {
						t.Fatalf("trial %d query %v order %v: %s", trial, q, ord, diff)
					}
					if len(rec.violations) > 0 {
						t.Fatalf("trial %d query %v order %v: %v", trial, q, ord, rec.violations)
					}
				}
			}
		})
	}
}

// TestDeadBindCountsP3 pins the operation counts of a WGPB P3 path
// ?a-?b-?c-?d on a fixed graph. The engine orders it c, b, a, d: each
// value of c is bound in both its patterns (b and d read them later),
// each value of b only in ?a p0 ?b (a reads it; c's pattern is done),
// and the lonely ends a and d are enumerated without binding. That is
// 2·38 + 124 = 200 binds; binding every iterator, as Algorithm 1 does,
// issues 1,957. The leaps, seeks and enumerations are the same either
// way: skipping dead binds changes no other operation.
func TestDeadBindCountsP3(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 400, 40, 3)
	q := graph.Pattern{
		graph.TP(graph.Var("a"), graph.Const(0), graph.Var("b")),
		graph.TP(graph.Var("b"), graph.Const(1), graph.Var("c")),
		graph.TP(graph.Var("c"), graph.Const(2), graph.Var("d")),
	}
	want := EvalStats{Leaps: 629, Binds: 200, Enumerations: 1633, Seeks: 201}
	for _, opt := range []Options{{}, {Parallelism: 2}} {
		res, err := Evaluate(ringIndex(g, ring.Options{}), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != len(g.Evaluate(q, 0)) {
			t.Fatalf("P=%d: %d solutions, oracle %d", opt.Parallelism, len(res.Solutions), len(g.Evaluate(q, 0)))
		}
		if got := res.Stats; got != want {
			t.Errorf("P=%d: stats %+v, want %+v", opt.Parallelism, got, want)
		}
	}
}
