//go:build ringdebug

package ltj

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/testutil"
)

// overLeap is an iterator that breaks the trie-iterator contract: its
// Leap at one position returns any cursor below limit itself, whether or
// not a triple has that value there.
type overLeap struct {
	PatternIter
	pos   graph.Position
	limit graph.ID
}

func (o *overLeap) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	if pos == o.pos && c < o.limit {
		return c, true
	}
	return o.PatternIter.Leap(pos, c)
}

// TestRingdebugCatchesOverApproximatingLeap: the engine does not bind the
// last variable of a pattern (no later variable reads the iterator), so
// nothing in a normal build re-checks that variable's candidates, and an
// over-approximating Leap would yield solutions that do not exist. Under
// ringdebug every skipped bind is probed, and the first bogus candidate
// must panic.
func TestRingdebugCatchesOverApproximatingLeap(t *testing.T) {
	g := testutil.PaperGraph()
	base := ringIndex(g, ring.Options{})
	idx := IndexFunc(func(tp graph.TriplePattern) PatternIter {
		return &overLeap{PatternIter: base.NewPatternIter(tp), pos: graph.PosO, limit: g.NumSO()}
	})
	q := graph.Pattern{graph.TP(graph.Var("x"), graph.Var("p"), graph.Var("y"))}
	defer func() {
		r := recover()
		if r == nil {
			return // the t.Fatal below has already failed the test
		}
		if msg, _ := r.(string); !strings.Contains(msg, "skipped (dead) bind") {
			t.Fatalf("want a ringdebug dead-bind panic, got %v", r)
		}
	}()
	_, _ = Evaluate(idx, q, Options{Order: []string{"x", "p", "y"}, DisableLonely: true})
	t.Fatal("the over-approximating Leap went unnoticed")
}
