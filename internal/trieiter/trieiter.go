// Package trieiter defines the per-triple-pattern trie-iterator
// abstraction (Definition 2.1 of the paper, extended with explicit
// binding state) shared by the LTJ engine and every index that plugs
// into it — the ring, the flat tries, the B+-tree orders, the
// unidirectional ablation, and the dynamic store's union iterator.
//
// The interface lives in its own leaf package (rather than in the engine
// package internal/ltj) so that index packages whose types the engine's
// tests exercise — notably internal/ring — can also name it without an
// import cycle. internal/ltj re-exports the types under their historical
// names (ltj.PatternIter, ltj.ForkableIter) via aliases, so engine-side
// code is unaffected.
package trieiter

import (
	"repro/internal/graph"
	"repro/internal/wavelet"
)

// Iter maintains the set of triples matching one triple pattern under a
// stack of position bindings.
type Iter interface {
	// Count returns the number of triples currently matching. It backs the
	// cardinality statistics used for the variable elimination order.
	Count() int
	// Empty reports whether no triples currently match.
	Empty() bool
	// Leap returns the smallest constant >= c that can bind position pos
	// while keeping the pattern non-empty, or ok=false if none exists.
	// pos must be unbound.
	//
	// Exactness matters: the engine does not bind a value in an iterator
	// that no later variable reads, so nothing re-checks such an
	// iterator's Leap, Enumerate or LeapRun candidates with Bind+Empty.
	// An implementation that over-approximates yields wrong solutions
	// (the ringdebug build probes every skipped bind and panics).
	Leap(pos graph.Position, c graph.ID) (graph.ID, bool)
	// Bind fixes pos to c, narrowing the match set (possibly to empty).
	Bind(pos graph.Position, c graph.ID)
	// Unbind undoes the most recent Bind.
	Unbind()
	// CanEnumerate reports whether Enumerate is supported for pos under
	// the current bindings.
	CanEnumerate(pos graph.Position) bool
	// Enumerate visits the distinct values that can bind pos, in
	// increasing order, stopping early if visit returns false.
	Enumerate(pos graph.Position, visit func(graph.ID) bool)
}

// RunLeaper is the optional capability behind the engine's batched
// radix-intersection lane (DESIGN.md §13): an iterator whose Leap(pos, ·)
// candidates are exactly the distinct symbols of one contiguous
// wavelet-matrix range. When every iterator touching a join variable
// exposes such a range (over matrices of equal width), the engine
// replaces ping-pong leapfrogging with one wavelet.IntersectRanges
// descent over all the ranges at once.
type RunLeaper interface {
	Iter
	// LeapRun returns the matrix range whose distinct values are the
	// pattern's current candidates for pos, and whether the batched form
	// applies under the current bindings (for the ring: only the
	// backward-leap direction reads a contiguous column range). When
	// ok is false the caller must fall back to scalar Leap calls.
	LeapRun(pos graph.Position) (wavelet.MatrixRange, bool)
}

// Forkable is the optional capability the parallel LTJ engine uses to
// hand each worker goroutine an independent iterator. The query
// structures behind an iterator are immutable once built, so a fork only
// has to copy the small mutable cursor (range bounds and the binding
// stack); the underlying index is shared read-only across all forks.
type Forkable interface {
	Iter
	// Fork returns an iterator over the same pattern with the same
	// binding state, which can thereafter be advanced independently of
	// the receiver (including from a different goroutine). Fork may
	// return nil when a cheap fork is impossible under the current state;
	// callers must then fall back to rebuilding an iterator from the
	// pattern and replaying the bindings.
	Fork() Iter
}
