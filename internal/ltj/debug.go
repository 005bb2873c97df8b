package ltj

import (
	"fmt"

	"repro/internal/graph"
)

// debugCheckLeapOrder asserts the trie-iterator ordering contract the
// engine's seek loop relies on (Algorithm 1): Leap(pos, c) never returns
// a value below c. Called behind `if ringdebugEnabled { ... }` so normal
// builds eliminate it entirely.
func debugCheckLeapOrder(c, v graph.ID) {
	if v < c {
		panic(fmt.Sprintf("ringdebug: ltj: iterator leap returned %d < cursor %d (ordering contract violated)", v, c))
	}
}

// debugCheckBatchEmit asserts the batched lane's contract (DESIGN.md
// §13): emissions strictly increase, and — sampled — each emitted value
// is exactly what the scalar seek loop would have accepted, i.e. every
// iterator's Leap at the value returns the value itself.
func (e *evaluator) debugCheckBatchEmit(ivs []iterVar, v, prev graph.ID, havePrev bool) {
	if havePrev && v <= prev {
		panic(fmt.Sprintf("ringdebug: ltj: batched lane emitted %d after %d — not strictly increasing", v, prev))
	}
	if e.stats.BatchEmits&15 != 1 {
		return
	}
	for _, iv := range ivs {
		got, ok := iv.it.Leap(iv.positions[0], v)
		if !ok || got != v {
			panic(fmt.Sprintf("ringdebug: ltj: batched emission %d disagrees with scalar Leap (%d, %v)", v, got, ok))
		}
	}
}

// debugProbeDeadBind performs, uncounted, the Bind that bindVar and the
// lonely-variable path skip on a dead iterator, and asserts the value
// keeps the pattern non-empty. A panic here means an iterator's Leap,
// Enumerate or LeapRun produced a value its pattern cannot take, which
// a normal build would report as a solution.
func debugProbeDeadBind(iv iterVar, v graph.ID) {
	for _, pos := range iv.positions {
		iv.it.Bind(pos, v)
	}
	empty := iv.it.Empty()
	for range iv.positions {
		iv.it.Unbind()
	}
	if empty {
		panic(fmt.Sprintf("ringdebug: ltj: value %d leaves its pattern empty at a skipped (dead) bind — the iterator over-approximated its candidates", v))
	}
}
