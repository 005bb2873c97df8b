package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/wavelet"
)

// probeSink keeps the probed calls' results alive so the compiler cannot
// drop the calls.
var probeSink uint64

func probeOps(cfg config) int {
	if cfg.short {
		return 2000
	}
	return 200000
}

// probeWavelet times the wavelet-matrix operations the ring's leap and
// bind are built from, on the ring's own three columns. Symbols come from
// the workload's predicate constants on the predicate column and from
// values stored at random positions on the node columns, so the
// arguments follow the data's skew. Each metric is the mean over ops
// calls.
func probeWavelet(prefix string, r *ring.Ring, consts []graph.ID, rng *rand.Rand, ops int, full bool) []metric {
	type arg struct {
		m     *wavelet.Matrix
		c     uint64
		i, lo int
		hi, k int
	}
	var cols []*wavelet.Matrix
	for z := ring.Zone(0); z < 3; z++ {
		if m := r.Column(z); m.Len() > 0 {
			cols = append(cols, m)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	draw := func(m *wavelet.Matrix) uint64 {
		if m.Sigma() == uint64(r.NumP()) && len(consts) > 0 {
			if c := uint64(consts[rng.Intn(len(consts))]); c < m.Sigma() {
				return c
			}
		}
		return m.Access(rng.Intn(m.Len()))
	}
	args := make([]arg, ops)
	for i := range args {
		m := cols[i%len(cols)]
		c := draw(m)
		n := m.Len()
		lo := rng.Intn(n)
		span := int(math.Exp(rng.Float64() * math.Log(float64(n-lo)+1)))
		k := 1
		if cnt := m.Rank(c, n); cnt > 0 {
			k = 1 + rng.Intn(cnt)
		}
		args[i] = arg{m: m, c: c, i: rng.Intn(n + 1), lo: lo, hi: min(n, lo+max(span, 1)), k: k}
	}
	timeOps := func(f func(a arg) uint64) float64 {
		start := time.Now()
		var s uint64
		for _, a := range args {
			s += f(a)
		}
		probeSink += s
		return float64(time.Since(start)) / float64(len(args))
	}
	out := []metric{
		scalar(prefix+"rank_ns", "ns", timeOps(func(a arg) uint64 { return uint64(a.m.Rank(a.c, a.i)) })),
		scalar(prefix+"range_next_ns", "ns", timeOps(func(a arg) uint64 {
			v, _ := a.m.RangeNextValue(a.lo, a.hi, a.c)
			return v
		})),
	}
	if !full {
		return out
	}
	out = append(out, scalar(prefix+"select_ns", "ns", timeOps(func(a arg) uint64 { return uint64(a.m.Select(a.c, a.k)) })))

	// Intersections are star joins on the predicate zone: the subjects
	// carrying both of two predicates, as the batched lane computes them.
	if len(consts) >= 2 {
		predZone := ring.ZoneOf(graph.PosP)
		m := r.Column(predZone)
		pairs := make([][]wavelet.MatrixRange, 0, ops/100+1)
		for len(pairs) < cap(pairs) {
			a, b := consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]
			alo, ahi := r.CRange(predZone, a)
			blo, bhi := r.CRange(predZone, b)
			pairs = append(pairs, []wavelet.MatrixRange{{M: m, Lo: alo, Hi: ahi}, {M: m, Lo: blo, Hi: bhi}})
		}
		emits := 0
		start := time.Now()
		for _, p := range pairs {
			wavelet.IntersectRanges(p, func(v uint64) bool {
				emits++
				probeSink += v
				return true
			})
		}
		out = append(out, scalar(prefix+"intersect_ns_per_emit", "ns", ratio(float64(time.Since(start)), float64(emits))))
	}
	return out
}
