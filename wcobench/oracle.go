package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/baseline/btree"
	"repro/internal/graph"
	"repro/internal/ltj"
)

// The oracle is the Jena stand-in of internal/baseline/btree: clustered
// B+-tree orders joined by index nested loops. It shares no code with the
// ring, the wavelet matrices or the LTJ engine, so an answer both agree
// on is not one bug seen twice.

// oracleTimeout guards prep against a pathological query; the costliest
// generated query settles in well under 0.1 s on the reference host. A
// query the oracle cannot settle in time fails the run instead of
// leaving the workload, so the workload is a function of the seed alone
// and no timed answer goes unchecked.
const oracleTimeout = 10 * time.Second

func oracleEval(j *btree.Jena, q graph.Pattern, limit int) ([]graph.Binding, error) {
	res, err := j.Evaluate(q, ltj.Options{Limit: limit, Timeout: oracleTimeout})
	if err == nil && res.TimedOut {
		err = fmt.Errorf("the oracle did not settle %v in %v", q, oracleTimeout)
	}
	if err != nil {
		return nil, err
	}
	return res.Solutions, nil
}

// oracleCount returns min(limit, total) for q.
func oracleCount(j *btree.Jena, q graph.Pattern, limit int) (int, error) {
	sols, err := oracleEval(j, q, limit)
	return len(sols), err
}

// oracleAll returns every solution of q, or ok=false when there are more
// than cap.
func oracleAll(j *btree.Jena, q graph.Pattern, cap int) (sols []graph.Binding, ok bool, err error) {
	if sols, err = oracleEval(j, q, cap+1); err != nil || len(sols) > cap {
		return nil, false, err
	}
	return sols, true, nil
}

// checkSolutions verifies that every solution binds every variable of q,
// that every triple it instantiates is in g, and that no solution
// repeats.
func checkSolutions(g *graph.Graph, q graph.Pattern, sols []graph.Binding) error {
	vars := q.Vars()
	seen := make(map[uint64]struct{}, len(sols))
	for i, b := range sols {
		if len(b) != len(vars) {
			return fmt.Errorf("solution %d binds %d variables, query has %d", i, len(b), len(vars))
		}
		for _, tp := range q {
			t, err := instantiate(tp, b)
			if err != nil {
				return fmt.Errorf("solution %d: %v", i, err)
			}
			if !g.Contains(t) {
				return fmt.Errorf("solution %d: triple %v not in graph", i, t)
			}
		}
		h := hashBinding(vars, b)
		if _, dup := seen[h]; dup {
			return fmt.Errorf("solution %d repeats an earlier one", i)
		}
		seen[h] = struct{}{}
	}
	return nil
}

func instantiate(tp graph.TriplePattern, b graph.Binding) (graph.Triple, error) {
	var ids [3]graph.ID
	for i, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
		term := tp.Term(pos)
		if !term.IsVar {
			ids[i] = term.Value
			continue
		}
		v, ok := b[term.Name]
		if !ok {
			return graph.Triple{}, fmt.Errorf("variable ?%s unbound", term.Name)
		}
		ids[i] = v
	}
	return graph.Triple{S: ids[0], P: ids[1], O: ids[2]}, nil
}

func hashBinding(vars []string, b graph.Binding) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range vars {
		x := b[v]
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashSolutions fingerprints an ordered answer, so a repeat of an answer
// the oracle already verified in full is recognised cheaply.
func hashSolutions(vars []string, sols []graph.Binding) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, b := range sols {
		x := hashBinding(vars, b)
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
