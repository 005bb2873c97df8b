package ltj

// Batched radix-intersection lane (DESIGN.md §13). When every iterator
// touching a join variable advertises trieiter.RunLeaper — its Leap
// candidates are the distinct symbols of one contiguous wavelet-matrix
// range — the engine replaces the ping-pong leapfrog seek loop with a
// single wavelet.IntersectRanges descent carrying all the ranges at
// once. The emitted values are exactly the values the scalar seek loop
// would accept, in the same increasing order, so the sequential engine's
// solution stream is unchanged down to the byte; only the cost model
// differs (one pruned multi-range walk instead of k root-to-leaf
// descents per candidate).

import (
	"repro/internal/graph"
	"repro/internal/trieiter"
	"repro/internal/wavelet"
)

// defaultBatchThreshold is the minimum candidate-range length at which
// the batched lane engages when Options.BatchThreshold is 0. Tiny ranges
// leapfrog in a handful of descents, so the multi-range walk's setup is
// not worth it there.
const defaultBatchThreshold = 16

// batchRuns decides whether variable j takes the batched lane and, if
// so, collects the iterators' candidate ranges into the evaluator's
// per-depth buffer (per-depth because the ranges stay live for the whole
// IntersectRanges walk, across the recursion into deeper variables). The
// lane requires ≥2 iterators (a lone iterator is the lonely/enumerate
// case), single-position occurrences, RunLeaper support under the
// current bindings, equal matrix widths, and a smallest range of at
// least the selectivity threshold.
//
//ringlint:hotpath allow-dispatch -- capability probe and LeapRun on the index-generic iterator
func (e *evaluator) batchRuns(j int, ivs []iterVar) ([]wavelet.MatrixRange, bool) {
	if e.opt.DisableBatch || len(ivs) < 2 {
		return nil, false
	}
	thr := e.opt.BatchThreshold
	if thr <= 0 {
		thr = defaultBatchThreshold
	}
	rs := e.runBufs[j][:0]
	minCount := -1
	for _, iv := range ivs {
		if len(iv.positions) != 1 {
			return nil, false
		}
		rl, ok := iv.it.(trieiter.RunLeaper)
		if !ok {
			return nil, false
		}
		r, ok := rl.LeapRun(iv.positions[0])
		if !ok || (len(rs) > 0 && r.M.Width() != rs[0].M.Width()) {
			return nil, false
		}
		if n := r.Hi - r.Lo; minCount < 0 || n < minCount {
			minCount = n
		}
		rs = append(rs, r)
	}
	e.runBufs[j] = rs
	if minCount < thr {
		return nil, false
	}
	return rs, true
}

// searchBatched eliminates variable j with one radix intersection of the
// collected ranges in place of the scalar seek loop. Each emitted value
// is bound in the live iterators and the search recurses, exactly as the
// scalar loop's per-value body does (bindVar). Dead iterators are not
// bound, so nothing re-checks an emission against them: a LeapRun that
// over-approximated would yield wrong solutions, which is why the
// RunLeaper contract asks for exactly the candidate set. The ringdebug
// build probes every skipped bind and panics on such an iterator.
func (e *evaluator) searchBatched(j int, name string, ivs []iterVar, rs []wavelet.MatrixRange) error {
	e.stats.BatchDescents++
	var rerr error
	prev, havePrev := graph.ID(0), false
	wavelet.IntersectRanges(rs, func(cv uint64) bool {
		if rerr = e.checkDeadline(); rerr != nil {
			return false
		}
		v := graph.ID(cv)
		e.stats.BatchEmits++
		if ringdebugEnabled {
			e.debugCheckBatchEmit(ivs, v, prev, havePrev)
			prev, havePrev = v, true
		}
		bound, alive := e.bindVar(ivs, v)
		if alive {
			e.binding[name] = v
			rerr = e.search(j + 1)
			delete(e.binding, name)
		}
		unbindVar(ivs, bound)
		return rerr == nil && !e.stopped
	})
	return rerr
}
