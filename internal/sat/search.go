package sat

import "sort"

// analyze derives a first-UIP learnt clause from a conflict. It returns the
// learnt literals (asserting literal first) and the backtrack level. The
// returned slice is the solver's reused scratch buffer: callers must copy
// it (into the arena) before the next analyze call.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, LitUndef) // slot for the asserting literal
	pathC := 0
	var p Lit = LitUndef
	idx := len(s.trail) - 1

	for {
		if confl == crefUndef {
			panic("sat: analyze reached a reason-less literal before the first UIP")
		}
		if s.ca.learnt(confl) {
			s.claBump(confl)
			// Tier bookkeeping (see reduceDB): an antecedent earns one
			// round of reprieve, and its LBD is recomputed Glucose-style —
			// a clause that got "stickier" can be promoted into the core
			// tier, never demoted.
			s.ca.markUsed(confl)
			if s.ca.lbd(confl) > tierCoreLBD {
				if nl := s.computeLBD(s.ca.lits(confl)); nl < s.ca.lbd(confl) {
					s.ca.setLBD(confl, nl)
				}
			}
		}
		clits := s.ca.lits(confl)
		if p != LitUndef {
			clits = clits[1:] // skip the asserting literal of the reason clause
		}
		for _, q := range clits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.varBump(v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Snapshot the variables whose seen flags must be cleared: the in-place
	// compaction below overwrites dropped literals (MiniSat keeps a separate
	// analyze_toclear list for the same reason).
	toClear := s.toClear[:0]
	for _, l := range learnt {
		toClear = append(toClear, l.Var())
	}
	s.toClear = toClear[:0]

	// Conflict-clause minimisation: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == crefUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	minimized := learnt[:j]

	for _, v := range toClear {
		s.seen[v] = 0
	}

	btLevel := int32(0)
	if len(minimized) > 1 {
		// Move the highest-level non-asserting literal to position 1.
		maxI := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxI].Var()] {
				maxI = i
			}
		}
		minimized[1], minimized[maxI] = minimized[maxI], minimized[1]
		btLevel = s.level[minimized[1].Var()]
	}
	s.analyzeBuf = learnt[:0]
	return minimized, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learnt clause via its reason clause (MiniSat's ccmin_mode=1 local
// minimisation: every antecedent literal must itself be seen or at level 0).
func (s *Solver) litRedundant(l Lit) bool {
	c := s.reason[l.Var()]
	for _, q := range s.ca.lits(c)[1:] {
		v := q.Var()
		if s.seen[v] == 0 && s.level[v] != 0 {
			return false
		}
	}
	return true
}

// computeLBD returns the number of distinct decision levels among a
// clause's literals — the "literal block distance" quality measure. The
// per-level stamp array replaces the map the old implementation allocated
// on every conflict.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdTick++
	if s.lbdTick == 0 { // wrapped: stale stamps could collide
		for i := range s.levelStamp {
			s.levelStamp[i] = 0
		}
		s.lbdTick = 1
	}
	tick := s.lbdTick
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		for int(lv) >= len(s.levelStamp) {
			s.levelStamp = append(s.levelStamp, 0)
		}
		if s.levelStamp[lv] != tick {
			s.levelStamp[lv] = tick
			n++
		}
	}
	return n
}

// subsumes reports whether every literal of small occurs in the clause c —
// the on-the-fly subsumption test run after conflict analysis.
func (s *Solver) subsumes(small []Lit, c cref) bool {
	clits := s.ca.lits(c)
outer:
	for _, l := range small {
		for _, q := range clits {
			if q == l {
				continue outer
			}
		}
		return false
	}
	return true
}

// analyzeFinal computes the set of assumption literals responsible for
// forcing p false, storing their negations in s.conflict.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == crefUndef {
			// Decision ⇒ assumption at this point of the search.
			s.conflict = append(s.conflict, s.trail[i].Not())
		} else {
			for _, q := range s.ca.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// Learnt-clause tier boundaries (CaDiCaL-style): core clauses (LBD ≤ 2,
// "glue") are kept forever; mid clauses (LBD ≤ 6) and local clauses
// survive a reduction only if they served as a conflict antecedent since
// the previous one, with mid-tier clauses deleted last among the
// candidates.
const (
	tierCoreLBD = 2
	tierMidLBD  = 6
)

// reduceDB trims the learnt-clause database by tier instead of by a flat
// activity sort: core-tier clauses, reason clauses, and binaries are kept
// unconditionally; mid/local clauses used since the last reduction get
// one round of reprieve (and their used flag cleared, so they must earn
// the next one); the remaining candidates are ranked local-tier first,
// then by descending LBD and ascending activity, and the worse half is
// deleted. Entries already deleted on the fly are purged, and the arena
// is compacted when enough of it has died.
func (s *Solver) reduceDB() {
	ca := &s.ca
	locked := func(c cref) bool {
		v := ca.lits(c)[0].Var()
		return s.assigns[v] != lUndef && s.reason[v] == c
	}
	keep := s.learnts[:0]
	cand := make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		if ca.deleted(c) {
			continue // removed on the fly (OTF subsumption)
		}
		switch {
		case ca.lbd(c) <= tierCoreLBD || ca.size(c) <= 2 || locked(c):
			keep = append(keep, c)
		case ca.used(c):
			ca.clearUsed(c)
			keep = append(keep, c)
		default:
			cand = append(cand, c)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if ta, tb := ca.lbd(a) > tierMidLBD, ca.lbd(b) > tierMidLBD; ta != tb {
			return ta // local tier deleted before mid tier
		}
		if la, lb := ca.lbd(a), ca.lbd(b); la != lb {
			return la > lb
		}
		return ca.act(a) < ca.act(b)
	})
	limit := len(cand) / 2
	for i, c := range cand {
		if i < limit {
			s.detach(c)
			s.Stats.Removed++
		} else {
			keep = append(keep, c)
		}
	}
	s.learnts = keep
	// The protected tiers can exceed the limit that triggered this call;
	// grow it past the survivors so reduceDB doesn't re-fire every
	// conflict while deleting nothing.
	if float64(len(s.learnts)) >= s.maxLearnts {
		s.maxLearnts = float64(len(s.learnts))*1.1 + 100
	}
	s.maybeGC()
}

// luby computes the i-th element (1-based) of the Luby restart sequence
// scaled by base.
func luby(base int64, i int64) int64 {
	// Find the finite subsequence containing index i.
	var k uint = 1
	for (int64(1)<<k)-1 < i {
		k++
	}
	for (int64(1)<<k)-1 != i {
		i -= (int64(1) << (k - 1)) - 1
		k = 1
		for (int64(1)<<k)-1 < i {
			k++
		}
	}
	return base << (k - 1)
}

// chronoThreshold is the backjump length past which the solver backtracks
// chronologically (one level) instead: a conflict whose assertion level is
// hundreds of levels down usually reconstructs most of the discarded trail
// verbatim, so keeping it and asserting the learnt literal in place is
// cheaper (Nadel & Ryvchin, SAT'18). Soundness: at any level ≥ the
// assertion level every non-asserting literal of the learnt clause is
// still false, so the clause is unit there too.
const chronoThreshold = 100

// search runs CDCL until a model, a restart or budget exhaustion, a
// cancellation, or an assumption failure. nConflicts bounds this restart's
// conflicts. Budget/cancellation stops set s.stopReason, which
// distinguishes them from an ordinary restart in Solve's outer loop.
func (s *Solver) search(nConflicts int64) Status {
	conflicts := int64(0)
	for {
		if r := s.stopCheck(); r != StopNone {
			s.stopReason = r
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsatLevel0 = true
				s.conflict = s.conflict[:0]
				return Unsat
			}
			if s.opts.DisableLearning {
				// Chronological backtracking: flip the most recent decision
				// by learning only the negation of the current decisions.
				decs := make([]Lit, 0, s.decisionLevel())
				for _, ti := range s.trailLim {
					d := s.trail[ti].Not()
					// Dummy assumption levels duplicate the next decision.
					if n := len(decs); n == 0 || decs[n-1] != d {
						decs = append(decs, d)
					}
				}
				s.cancelUntil(s.decisionLevel() - 1)
				if len(decs) == 1 {
					s.uncheckedEnqueue(decs[0], crefUndef)
				} else {
					// Order for watching: asserting literal first.
					last := len(decs) - 1
					decs[0], decs[last] = decs[last], decs[0]
					c := s.ca.alloc(decs, true)
					s.ca.setLBD(c, s.computeLBD(decs))
					s.learnts = append(s.learnts, c)
					s.attach(c)
					s.uncheckedEnqueue(decs[0], c)
				}
				s.varDecay()
				continue
			}
			learnt, btLevel := s.analyze(confl)
			// On-the-fly subsumption: when the minimized learnt clause is a
			// strict subset of the conflicting learnt clause, the latter is
			// redundant — drop it now instead of carrying both to reduceDB.
			if s.ca.learnt(confl) && len(learnt) < s.ca.size(confl) &&
				len(learnt) <= 30 && s.subsumes(learnt, confl) {
				s.detach(confl)
				s.Stats.OTFSubsumed++
			}
			// Chrono never applies to unit learnts: a unit is a global fact
			// that must live at level 0 — asserted higher it would be a
			// reason-less non-decision literal, which analyze/analyzeFinal
			// (rightly) treat as impossible.
			if len(learnt) > 1 && s.decisionLevel()-btLevel > chronoThreshold {
				btLevel = s.decisionLevel() - 1
				s.Stats.ChronoBacktracks++
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.ca.alloc(learnt, true)
				s.ca.setLBD(c, s.computeLBD(learnt))
				s.learnts = append(s.learnts, c)
				s.Stats.Learnt++
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(s.ca.lits(c)[0], c)
			}
			s.varDecay()
			s.claDecay()
			continue
		}

		if conflicts >= nConflicts {
			s.cancelUntil(0) // assumptions are re-applied as the first decisions
			return Unknown   // restart
		}
		if !s.opts.DisableLearning && float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
		}

		// Assumptions first, then free decisions.
		next := LitUndef
		for int(s.decisionLevel()) < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; dummy level
				continue
			case lFalse:
				s.analyzeFinal(a.Not())
				return Unsat
			}
			next = a
			break
		}
		if next == LitUndef {
			next = s.pickBranchVar()
			if next == LitUndef {
				return Sat // all variables assigned
			}
			s.Stats.Decisions++
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Solve determines satisfiability of the clause set under the given
// assumption literals. On Sat, Model/Value expose the assignment; on Unsat,
// Core exposes the failed assumptions. Solve may be called repeatedly,
// interleaved with AddClause and NewVar. Plain Solve runs to a verdict:
// only SolveCtx, under a budget or a cancellable context, can return
// Unknown (see StopReason).
func (s *Solver) Solve(assumps ...Lit) Status {
	s.stopReason = StopNone
	if s.unsatLevel0 {
		s.conflict = s.conflict[:0]
		return Unsat
	}
	// Pre-flight: an already-expired deadline or cancelled context must not
	// start (and potentially finish) a search whose verdict the caller has
	// declared itself unwilling to wait for.
	if r := s.stopNow(); r != StopNone {
		s.stopReason = r
		return Unknown
	}
	s.cancelUntil(0)
	s.flushWatches()
	if confl := s.propagate(); confl != crefUndef {
		s.unsatLevel0 = true
		s.conflict = s.conflict[:0]
		return Unsat
	}
	// Preprocess before search: assumption variables are frozen (and, if a
	// previous run eliminated them, restored) so the assumptions name live
	// variables, then the clause database is simplified if it is fresh or
	// has grown enough since the last run. See simplify.go.
	if !s.opts.DisableSimp {
		for _, a := range assumps {
			s.Freeze(a.Var())
		}
		s.maybeSimplify()
		if s.unsatLevel0 {
			s.conflict = s.conflict[:0]
			return Unsat
		}
	}
	s.assumptions = assumps
	defer func() { s.assumptions = nil }()

	s.maxLearnts = float64(len(s.clauses)) / 3
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	if s.opts.learntCap > 0 {
		s.maxLearnts = float64(s.opts.learntCap)
	}
	if s.nextInprocess == 0 {
		s.nextInprocess = s.Stats.Conflicts + s.inprocessInterval()
	}

	var restart int64 = 1
	for {
		st := s.search(luby(s.opts.lubyUnit(), restart))
		switch st {
		case Sat:
			s.model = make([]bool, len(s.assigns))
			for v := range s.assigns {
				s.model[v] = s.assigns[v] == lTrue
			}
			s.extendModel()
			s.cancelUntil(0)
			return Sat
		case Unsat:
			s.cancelUntil(0)
			return Unsat
		}
		if s.stopReason != StopNone {
			return Unknown // budget or cancellation, not a restart
		}
		s.Stats.Restarts++
		restart++
		if s.opts.learntCap <= 0 {
			s.maxLearnts *= s.learntGrowth
		}
		// Between restarts the trail is at the assumption level (0) — the
		// one place mid-search where inprocessing is safe to run.
		s.maybeInprocess()
		if s.unsatLevel0 {
			s.conflict = s.conflict[:0]
			return Unsat
		}
	}
}

// Okay reports whether the clause set is still possibly satisfiable (no
// empty clause has been derived at level 0).
func (s *Solver) Okay() bool { return !s.unsatLevel0 }
