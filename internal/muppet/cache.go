package muppet

import (
	"context"
	"fmt"
	"strings"

	"muppet/internal/encode"
	"muppet/internal/relational"
	"muppet/internal/sat"
)

// SolveCache keeps live solving sessions keyed by workspace shape (which
// parties participate and in which role), so repeated workflow calls —
// negotiation rounds, conformance retries, repeated consistency checks —
// become incremental solves on a warm session instead of rebuilding
// bounds, grounding, and CNF from scratch. Learnt clauses carry over;
// they are implied by the problem clauses alone, so they stay sound when
// offers change between calls (changed constraint groups get fresh
// selectors, and stale selectors simply stop being assumed).
//
// A SolveCache is single-goroutine, like the sessions it owns: concurrent
// query serving uses one cache per worker over a shared encode.System.
// The nil *SolveCache is valid and means "no reuse": every call builds a
// one-shot workspace, which is the behaviour of the package-level
// workflow functions.
type SolveCache struct {
	entries  map[string]*workspace
	sessions int64
	reuses   int64
	// clock is a logical access counter stamping each workspace's last
	// use, so Evict can drop the least-recently-used session first.
	clock     int64
	evictions int64
}

// NewSolveCache creates an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{entries: make(map[string]*workspace)}
}

// ReuseStats reports how much work a SolveCache avoided.
type ReuseStats struct {
	// Sessions is the number of distinct sessions built (cache misses).
	Sessions int64
	// Reuses is the number of calls served by a live session.
	Reuses int64
	// Evictions is the number of live sessions dropped by Evict — the
	// price of keeping a long-lived cache under a memory budget.
	Evictions int64
	// Translation aggregates the translation-cache counters across all
	// live sessions.
	Translation relational.CacheStats
	// Encoding aggregates encoding-size counters across all live sessions.
	Encoding EncodingStats
}

// EncodingStats sizes the encoding pipeline across live sessions: how big
// the circuits and clause databases are, and how much the preprocessing
// layers took off.
type EncodingStats struct {
	// CircuitNodes is the total number of AIG nodes allocated.
	CircuitNodes int64
	// SolverVars and SolverClauses size the live SAT databases (clauses
	// counts problem clauses after preprocessing).
	SolverVars    int64
	SolverClauses int64
	// LearntClauses counts live learnt clauses — the part of the clause
	// database that grows with search effort on a warm session.
	LearntClauses int64
	// SimpRuns counts full CNF preprocessing passes (before search, and
	// the in-search BVE re-runs). VarsEliminated is the number of
	// variables currently eliminated by them; ClausesRemoved accumulates
	// clauses they removed. Restored counts variables un-eliminated
	// because an incremental addition (a delta re-assertion, typically)
	// touched them.
	SimpRuns       int64
	VarsEliminated int64
	ClausesRemoved int64
	Restored       int64
	// ArenaBytes is the exact backing size of the flat clause arenas —
	// the measured counterpart of the ApproxBytes estimate.
	ArenaBytes int64
	// Search-core counters, accumulated across each session's lifetime:
	// chronological backtracks taken instead of long backjumps, conflict
	// clauses deleted by on-the-fly subsumption, inprocessing passes run,
	// and clauses shortened by vivification.
	ChronoBacktracks int64
	OTFSubsumed      int64
	InprocessRuns    int64
	Vivified         int64
}

// Approximate per-object sizes of the live solving structures, in bytes.
// These are deliberately rough (struct headers, watch lists, hash-cons
// tables and activity metadata averaged in) — the accounting exists to
// keep a fleet of warm sessions under a budget, not to audit the heap.
const (
	bytesPerCircuitNode = 32 // AIG node: fanins, hash-cons slot, flags
	bytesPerVar         = 56 // assignment, level, reason, activity, watches
	bytesPerClause      = 64 // header + average literal payload + watch refs
)

// ApproxBytes estimates the resident memory behind these encoding sizes.
func (e EncodingStats) ApproxBytes() int64 {
	return e.CircuitNodes*bytesPerCircuitNode +
		e.SolverVars*bytesPerVar +
		(e.SolverClauses+e.LearntClauses)*bytesPerClause
}

func (e *EncodingStats) add(t EncodingStats) {
	e.CircuitNodes += t.CircuitNodes
	e.SolverVars += t.SolverVars
	e.SolverClauses += t.SolverClauses
	e.LearntClauses += t.LearntClauses
	e.SimpRuns += t.SimpRuns
	e.VarsEliminated += t.VarsEliminated
	e.ClausesRemoved += t.ClausesRemoved
	e.Restored += t.Restored
	e.ArenaBytes += t.ArenaBytes
	e.ChronoBacktracks += t.ChronoBacktracks
	e.OTFSubsumed += t.OTFSubsumed
	e.InprocessRuns += t.InprocessRuns
	e.Vivified += t.Vivified
}

// sessionEncodingStats snapshots one live session's encoding sizes.
func sessionEncodingStats(ss *relational.Session) EncodingStats {
	s := ss.Solver()
	return EncodingStats{
		CircuitNodes:   int64(ss.CNF().Factory().NumNodes()),
		SolverVars:     int64(s.NumVars()),
		SolverClauses:  int64(s.NumClauses()),
		LearntClauses:  int64(s.NumLearnts()),
		SimpRuns:       s.Stats.SimpRuns,
		VarsEliminated: s.Stats.SimpVarsEliminated,
		ClausesRemoved: s.Stats.SimpClausesRemoved,
		Restored:       s.Stats.SimpRestored,

		ArenaBytes:       s.ArenaBytes(),
		ChronoBacktracks: s.Stats.ChronoBacktracks,
		OTFSubsumed:      s.Stats.OTFSubsumed,
		InprocessRuns:    s.Stats.InprocessRuns,
		Vivified:         s.Stats.Vivified,
	}
}

// Add accumulates t's counters into s — the aggregation step when one
// serving process sums per-worker caches for a stats report or a metrics
// scrape.
func (s *ReuseStats) Add(t ReuseStats) {
	s.Sessions += t.Sessions
	s.Reuses += t.Reuses
	s.Evictions += t.Evictions
	s.Translation.PointerHits += t.Translation.PointerHits
	s.Translation.StructHits += t.Translation.StructHits
	s.Translation.Misses += t.Translation.Misses
	s.Encoding.add(t.Encoding)
}

// Stats reports the cache's effectiveness counters.
func (c *SolveCache) Stats() ReuseStats {
	if c == nil {
		return ReuseStats{}
	}
	st := ReuseStats{Sessions: c.sessions, Reuses: c.reuses, Evictions: c.evictions}
	for _, ws := range c.entries {
		t := ws.ss.CacheStats()
		st.Translation.PointerHits += t.PointerHits
		st.Translation.StructHits += t.StructHits
		st.Translation.Misses += t.Misses
		st.Encoding.add(sessionEncodingStats(ws.ss))
	}
	return st
}

// specsKey identifies a workspace shape: each participant's name, role,
// and configuration domain (the relation identities bindFree binds), in
// order. The key is deliberately shape-based rather than party-pointer
// based: the session state a workspace reuses — bounds, grounding caches,
// CNF, learnt clauses — depends only on the domain relations (bindFree's
// bounds are configuration-independent), so a freshly built party with the
// same name and domain can be served from the same live session. Its
// goals and offers are per-call state, re-derived by reset; re-compiled
// but structurally identical goal formulas hit the translator's
// structural cache.
func specsKey(specs []partySpec) string {
	var b strings.Builder
	for _, sp := range specs {
		fmt.Fprintf(&b, "%s:%t:%t[", sp.party.Name, sp.enforceFixed, sp.includeGoals)
		for _, r := range sp.party.Domain {
			fmt.Fprintf(&b, "%p,", r)
		}
		b.WriteString("];")
	}
	return b.String()
}

// workspaceFor returns a workspace for the given shape: a reset live one
// on a cache hit, a freshly built reusable one on a miss, and a one-shot
// workspace when the receiver is nil.
func (c *SolveCache) workspaceFor(sys *encode.System, specs []partySpec) *workspace {
	if c == nil {
		return newWorkspace(sys, specs, false)
	}
	key := specsKey(specs)
	c.clock++
	if ws, ok := c.entries[key]; ok && ws.sys == sys {
		c.reuses++
		ws.lastUsed = c.clock
		// The hit may be for different party objects of the same shape:
		// adopt the new specs before reset re-derives the per-call state.
		ws.specs = specs
		clear(ws.oms)
		ws.reset()
		return ws
	}
	ws := newWorkspace(sys, specs, true)
	ws.lastUsed = c.clock
	c.entries[key] = ws
	c.sessions++
	return ws
}

// Len reports the number of live sessions the cache holds.
func (c *SolveCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// ApproxBytes estimates the resident memory behind the cache's live
// sessions, from each session's encoding sizes (see
// EncodingStats.ApproxBytes). It is the unit a serving process budgets
// warm caches by.
func (c *SolveCache) ApproxBytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for _, ws := range c.entries {
		total += sessionEncodingStats(ws.ss).ApproxBytes()
	}
	return total
}

// Evict drops up to n live sessions, least recently used first, releasing
// their circuits, clause databases and learnt clauses to the collector.
// It returns the number evicted. An evicted shape simply rebuilds on its
// next use — eviction trades warm-start latency for memory, never
// correctness.
func (c *SolveCache) Evict(n int) int {
	if c == nil || n <= 0 {
		return 0
	}
	evicted := 0
	for evicted < n && len(c.entries) > 0 {
		lruKey := ""
		var lru *workspace
		for k, ws := range c.entries {
			if lru == nil || ws.lastUsed < lru.lastUsed {
				lruKey, lru = k, ws
			}
		}
		delete(c.entries, lruKey)
		c.evictions++
		evicted++
	}
	return evicted
}

// LocalConsistencyCtx is the Alg. 1 check on a cached session; see the
// package-level LocalConsistencyCtx for semantics.
func (c *SolveCache) LocalConsistencyCtx(ctx context.Context, sys *encode.System, subject *Party, others []*Party, b sat.Budget) *Result {
	specs := []partySpec{{party: subject, enforceFixed: true, includeGoals: true}}
	for _, o := range others {
		specs = append(specs, partySpec{party: o})
	}
	return c.workspaceFor(sys, specs).run(ctx, b)
}

// ReconcileCtx is the Alg. 2 reconciliation on a cached session; see the
// package-level ReconcileCtx for semantics.
func (c *SolveCache) ReconcileCtx(ctx context.Context, sys *encode.System, parties []*Party, b sat.Budget) *Result {
	specs := make([]partySpec, len(parties))
	for i, p := range parties {
		specs[i] = partySpec{party: p, enforceFixed: true, includeGoals: true}
	}
	return c.workspaceFor(sys, specs).run(ctx, b)
}

// MinimalEditCtx is the Fig. 8 revision on a cached session; see the
// package-level MinimalEditCtx for semantics. Constraints recur across
// rounds (re-computed envelopes, the party's goals); structurally
// unchanged ones reuse their previously grounded circuit.
func (c *SolveCache) MinimalEditCtx(ctx context.Context, sys *encode.System, p *Party, constraints []relational.Formula, b sat.Budget, others ...*Party) *Result {
	specs := []partySpec{{party: p, enforceFixed: true, includeGoals: false}}
	for _, o := range others {
		specs = append(specs, partySpec{party: o, enforceFixed: true, includeGoals: false})
	}
	ws := c.workspaceFor(sys, specs)
	for i, cf := range constraints {
		ws.addNamed(fmt.Sprintf("%s/constraint[%d]", p.Name, i), ws.ss.Lit(cf))
	}
	return ws.run(ctx, b)
}

// RunConformanceCtx is the Fig. 7 workflow with every solving step served
// from this cache, so conformance retries against evolving offers reuse
// the live sessions; see the package-level RunConformanceCtx for
// semantics.
func (c *SolveCache) RunConformanceCtx(ctx context.Context, sys *encode.System, provider, tenant *Party, b sat.Budget) *ConformanceOutcome {
	return runConformanceCtx(ctx, c, sys, provider, tenant, b)
}
