package main

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

// iterCounters accumulates what the traced iterators saw. Fields are
// atomic because forks of one iterator may run on parallel LTJ workers.
type iterCounters struct {
	leaps, leapNanos     atomic.Int64
	binds, bindNanos     atomic.Int64
	leapRuns, enumerated atomic.Int64
	// iterNanos is all time spent inside iterator calls (Enumerate minus
	// its visit callbacks), so LTJ self time is Evaluate minus this.
	iterNanos atomic.Int64
}

// tracedIter wraps one pattern iterator and times every call. It is
// transparent: it forwards the optional capabilities the engine probes
// for (trieiter.RunLeaper for the batched lane, trieiter.Forkable for
// parallel workers, CanEnumerate/Enumerate for lonely variables), so the
// traced engine takes exactly the lanes the untraced one takes; the
// traced run fails unless its EvalStats match the untraced run's.
type tracedIter struct {
	in trieiter.Iter
	c  *iterCounters
}

// tracedIndex wraps every iterator the index creates.
func tracedIndex(idx ltj.Index, c *iterCounters) ltj.Index {
	return ltj.IndexFunc(func(tp graph.TriplePattern) ltj.PatternIter {
		return &tracedIter{in: idx.NewPatternIter(tp), c: c}
	})
}

func (t *tracedIter) Count() int {
	s := time.Now()
	n := t.in.Count()
	t.c.iterNanos.Add(int64(time.Since(s)))
	return n
}

func (t *tracedIter) Empty() bool {
	s := time.Now()
	e := t.in.Empty()
	t.c.iterNanos.Add(int64(time.Since(s)))
	return e
}

func (t *tracedIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	s := time.Now()
	v, ok := t.in.Leap(pos, c)
	d := int64(time.Since(s))
	t.c.leaps.Add(1)
	t.c.leapNanos.Add(d)
	t.c.iterNanos.Add(d)
	return v, ok
}

func (t *tracedIter) Bind(pos graph.Position, c graph.ID) {
	s := time.Now()
	t.in.Bind(pos, c)
	d := int64(time.Since(s))
	t.c.binds.Add(1)
	t.c.bindNanos.Add(d)
	t.c.iterNanos.Add(d)
}

func (t *tracedIter) Unbind() {
	s := time.Now()
	t.in.Unbind()
	t.c.iterNanos.Add(int64(time.Since(s)))
}

func (t *tracedIter) CanEnumerate(pos graph.Position) bool {
	return t.in.CanEnumerate(pos)
}

// Enumerate times the enumeration itself but not the engine work its
// visit callback does for each value.
func (t *tracedIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	resume := time.Now()
	t.in.Enumerate(pos, func(v graph.ID) bool {
		t.c.iterNanos.Add(int64(time.Since(resume)))
		t.c.enumerated.Add(1)
		ok := visit(v)
		resume = time.Now()
		return ok
	})
	t.c.iterNanos.Add(int64(time.Since(resume)))
}

// LeapRun forwards trieiter.RunLeaper; an inner iterator without the
// capability reports the batched form as inapplicable, which is what the
// engine concludes when the capability is absent.
func (t *tracedIter) LeapRun(pos graph.Position) (wavelet.MatrixRange, bool) {
	rl, ok := t.in.(trieiter.RunLeaper)
	if !ok {
		return wavelet.MatrixRange{}, false
	}
	s := time.Now()
	r, ok := rl.LeapRun(pos)
	t.c.iterNanos.Add(int64(time.Since(s)))
	t.c.leapRuns.Add(1)
	return r, ok
}

// Fork forwards trieiter.Forkable; nil tells the engine to rebuild the
// iterator from its pattern, as it does for iterators without the
// capability.
func (t *tracedIter) Fork() trieiter.Iter {
	f, ok := t.in.(trieiter.Forkable)
	if !ok {
		return nil
	}
	fork := &tracedIter{in: f.Fork(), c: t.c} //ringlint:allow forksafe -- forks add to the run's atomic counters on purpose
	if fork.in == nil {
		return nil
	}
	return fork
}

var (
	_ trieiter.RunLeaper = (*tracedIter)(nil)
	_ trieiter.Forkable  = (*tracedIter)(nil)
)
