package server

// Shared-scan batch execution (DESIGN.md §13). Concurrently-arriving
// cache-miss queries whose canonical pattern forms coincide are grouped:
// the first arrival (the leader) runs one engine pass over the union of
// the group's needs — pattern only, no projection, limit raised to the
// largest member's offset+limit — and every member carves its own view
// (offset/limit slice, then the solo path's respondRows: projection,
// encode, cache fill) out of the shared solution stream. Followers skip
// admission entirely, so a thundering herd of identical queries costs
// one admission slot and one evaluation instead of N.
//
// Grouping is by canonical pattern equality — the degenerate (total)
// case of prefix sharing: the canonical form is order-insensitive, so
// syntactically permuted patterns group together. A member may attach
// only while the group is in flight and only if its need (offset+limit)
// is covered by the leader's; otherwise it runs solo. Eligibility
// excludes Distinct (limit applies post-dedup, so a slice of the raw
// stream is not a slice of the distinct stream), OrderBy (the shared
// pass would have to adopt one member's sort), and NoCache (the load
// generator uses it to measure the engine, which sharing would skew).
//
// The group's evaluation runs under its own context, detached from the
// leader's request: a leader whose client disconnects keeps computing
// for its followers. Membership is counted; the last member to abandon
// the group cancels the evaluation so no orphaned pass burns a slot.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/query"
)

// scanGroup is one in-flight shared evaluation. The result fields are
// written by the leader strictly before done closes and are immutable
// afterwards; everything else is guarded by sharedScans.mu.
type scanGroup struct {
	need     int  // offset+limit ceiling the leader evaluates to; immutable after join creates the group
	members  int  // attached requests still waiting //ringlint:guarded-by sharedScans.mu
	fanout   int  // followers that ever attached //ringlint:guarded-by sharedScans.mu
	finished bool // results published //ringlint:guarded-by sharedScans.mu

	done chan struct{} // closed once results (or failure) are published
	//ringlint:guarded-by sharedScans.mu
	cancel context.CancelFunc

	// Published by the leader before close(done):
	sols  []graph.Binding
	stats ltj.EvalStats
	err   error // the evaluation's error, ltj.ErrTimeout included

	// Admission failure to mirror to followers (0 = none).
	failCode   int
	failMsg    string
	failReason string // shed reason label, when failCode sheds
}

// sharedScans is the registry of in-flight groups, keyed by cache-prefix
// + canonical pattern + timeout bucket. Groups are removed the moment
// their results publish, so the map only ever holds live evaluations.
type sharedScans struct {
	mu sync.Mutex
	m  map[string]*scanGroup //ringlint:guarded-by mu
}

// join attaches to the group for key, or creates it. Returns (g, true)
// for the leader, (g, false) for a follower, and (nil, false) when an
// existing group cannot cover need — the caller then runs solo.
func (sc *sharedScans) join(key string, need int) (*scanGroup, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if g, ok := sc.m[key]; ok {
		if need > g.need {
			return nil, false
		}
		g.members++
		g.fanout++
		return g, false
	}
	if sc.m == nil {
		sc.m = map[string]*scanGroup{}
	}
	g := &scanGroup{need: need, members: 1, done: make(chan struct{})}
	sc.m[key] = g
	return g, true
}

// setCancel installs the group context's cancel under the registry lock,
// so leave observes either nil (leader not yet running — impossible to
// abandon, the leader is still a member) or the live cancel.
func (sc *sharedScans) setCancel(g *scanGroup, cancel context.CancelFunc) {
	sc.mu.Lock()
	g.cancel = cancel
	sc.mu.Unlock()
}

// leave detaches one member. The last member to leave an unfinished
// group cancels its evaluation.
func (sc *sharedScans) leave(g *scanGroup) {
	sc.mu.Lock()
	g.members--
	if ringdebugEnabled {
		sc.debugCheckMembersLocked(g)
	}
	cancel := g.cancel
	abandon := g.members == 0 && !g.finished
	sc.mu.Unlock()
	if abandon && cancel != nil {
		cancel()
	}
}

// finish publishes the group's results: it leaves the registry (late
// arrivals start a fresh group) and wakes every waiter.
func (sc *sharedScans) finish(key string, g *scanGroup) {
	sc.mu.Lock()
	if ringdebugEnabled {
		sc.debugCheckFinishLocked(g)
	}
	delete(sc.m, key)
	g.finished = true
	sc.mu.Unlock()
	close(g.done)
}

// trySharedScan routes an eligible cache-miss query through the
// shared-scan path. It reports whether the request was handled; false
// means the caller proceeds with the ordinary solo evaluation.
func (s *Server) trySharedScan(w http.ResponseWriter, r *http.Request, idx index, req *QueryRequest, p *queryPlan) bool {
	if s.cfg.DisableSharedScan || req.NoCache || req.Distinct || len(req.OrderBy) > 0 {
		return false
	}
	sel := p.sel
	patKey, ok := (query.Select{Pattern: sel.Pattern}).CacheKey()
	if !ok {
		return false
	}
	// The timeout joins the key so every member shares the deadline the
	// leader evaluates under; CachePrefix keeps live-mode generations
	// apart exactly as it does for the result cache.
	key := idx.CachePrefix() + patKey + "|t" + strconv.FormatInt(sel.Timeout.Milliseconds(), 10)
	g, leader := s.scans.join(key, sel.Offset+sel.Limit)
	if g == nil {
		return false
	}
	if leader {
		s.leadScan(w, r, idx, p, key, g)
	} else {
		s.met.sharedFollowers.inc()
		s.followScan(w, r, idx, p, g)
	}
	return true
}

// leadScan runs the group's single evaluation: admission under the
// leader's own request context, then the stripped pattern-only Select
// under the group context, then fan-out.
func (s *Server) leadScan(w http.ResponseWriter, r *http.Request, idx index, p *queryPlan, key string, g *scanGroup) {
	//ringlint:detach -- the group outlives its leader; cancellation is member-count-driven, not request-driven
	gctx, gcancel := context.WithCancel(context.Background())
	s.scans.setCancel(g, gcancel)
	defer gcancel()

	// The leader's client disconnecting only abandons its membership;
	// the evaluation itself dies when the last member leaves.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-r.Context().Done():
			s.scans.leave(g)
		case <-g.done:
		case <-watchDone:
		}
	}()

	waitCtx, cancelWait := context.WithTimeout(r.Context(), s.cfg.QueueWait)
	err := s.adm.acquire(waitCtx, s.weight)
	cancelWait()
	if err != nil {
		// The whole group inherits the leader's admission verdict: if the
		// server cannot take one evaluation it cannot take N.
		switch {
		case errors.Is(err, errQueueFull):
			g.failCode, g.failMsg, g.failReason = http.StatusTooManyRequests,
				"server saturated: admission queue full", `reason="queue_full"`
		case r.Context().Err() != nil:
			g.failCode = statusClientClosedRequest
		default:
			g.failCode, g.failMsg, g.failReason = http.StatusServiceUnavailable,
				"server saturated: admission wait timed out", `reason="queue_timeout"`
		}
		s.scans.finish(key, g)
		s.respondFromGroup(w, idx, p, g, false)
		return
	}
	defer s.adm.release(s.weight)

	run := p.sel
	run.Project = nil // members project their own views
	run.Offset = 0
	run.Limit = g.need
	run.Stats = &g.stats
	run.Context = gctx
	g.sols, g.err = run.Run(ltj.IndexFunc(idx.PatternIters()))
	s.recordEval(g.stats)
	s.scans.finish(key, g)
	// fanout is stable after finish: the group has left the registry, so
	// no further join can touch it. A lone leader is just the solo path
	// with extra steps; only real fan-outs count as groups.
	if g.fanout > 0 { //ringlint:allow guardedby -- stable after finish: the group has left the registry
		s.met.sharedGroups.inc()
	}
	s.respondFromGroup(w, idx, p, g, false)
}

// followScan waits for the group's results (or the follower's own client
// to go away) and renders the follower's view of them.
func (s *Server) followScan(w http.ResponseWriter, r *http.Request, idx index, p *queryPlan, g *scanGroup) {
	select {
	case <-g.done:
	case <-r.Context().Done():
		s.scans.leave(g)
		s.met.queries.get(`outcome="cancelled"`).inc()
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	s.respondFromGroup(w, idx, p, g, true)
}

// respondFromGroup renders one member's response from the published
// group state: admission-failure mirroring, then the member's
// offset/limit slice of the shared stream through respondRows, which
// projects it (by encoding only the member's columns) and caches it
// under the member's own key.
func (s *Server) respondFromGroup(w http.ResponseWriter, idx index, p *queryPlan, g *scanGroup, shared bool) {
	switch {
	case g.failCode == statusClientClosedRequest:
		if shared {
			// The leader's client going away during the admission wait is
			// not the follower's doing: mirroring the 499 would tell a
			// still-connected client that *it* hung up. Shed the follower
			// retryably instead — a retry lands on a fresh group (the old
			// one left the registry at finish) with a new leader.
			s.met.queries.get(`outcome="shed"`).inc()
			s.met.shed.get(`reason="leader_cancelled"`).inc()
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusServiceUnavailable,
				"shared-scan leader cancelled during admission wait; retry")
			return
		}
		s.met.queries.get(`outcome="cancelled"`).inc()
		w.WriteHeader(statusClientClosedRequest)
		return
	case g.failCode != 0:
		s.met.queries.get(`outcome="shed"`).inc()
		if g.failReason != "" {
			s.met.shed.get(g.failReason).inc()
		}
		w.Header().Set("Retry-After", "1")
		jsonError(w, g.failCode, g.failMsg)
		return
	}

	// The member's slice of the shared stream. The leader evaluated with
	// offset 0 and limit g.need ≥ sel.Offset+sel.Limit, so the slice is
	// exactly what an engine-native offset/limit would have produced. A
	// leader cancelled mid-evaluation surfaces here too: a waiting
	// follower keeps the member count positive, so only the leader can
	// see a group abandoned under it.
	sel, sols := p.sel, g.sols
	lo := min(sel.Offset, len(sols))
	hi := len(sols)
	if sel.Limit > 0 && lo+sel.Limit < hi {
		hi = lo + sel.Limit
	}
	s.respondRows(w, idx, p, sols[lo:hi], g.err, &g.stats, shared)
}
