package sat

// Scheduled inprocessing: between restarts — the one point mid-search
// where the trail is back at level 0 — the solver periodically (1) probes
// problem clauses with clause vivification, shrinking or deleting them,
// and (2) re-runs the internal/simp preprocessor so bounded variable
// elimination sees the clauses learnt since the last pass. Assumption
// variables are frozen at Solve entry, so elimination never removes a
// variable the caller will assume or read, and Extend/Restore keep
// incremental sessions correct exactly as for pre-search simplification.

// inprocessDefaultInterval is how many conflicts pass between ticks.
const inprocessDefaultInterval = 4000

// bveTickPeriod: a full preprocessor re-run (subsumption + BVE + database
// rebuild) costs far more than a vivification round, so it runs only on
// every bveTickPeriod-th tick.
const bveTickPeriod = 4

// vivifyPropBudget bounds the unit-propagation work of one vivification
// round; the rolling cursor resumes where the budget ran out.
const vivifyPropBudget = 100_000

// vivifyMinSize: clauses shorter than this are not probed — binary
// clauses cannot shrink usefully and propagate cheaply anyway.
const vivifyMinSize = 3

func (s *Solver) inprocessInterval() int64 {
	if s.opts.inprocessInterval > 0 {
		return s.opts.inprocessInterval
	}
	return inprocessDefaultInterval
}

// vivifyBudget resolves the per-round propagation budget (Options
// override, -1 → off).
func (s *Solver) vivifyBudget() int64 {
	switch {
	case s.opts.VivifyPropBudget > 0:
		return s.opts.VivifyPropBudget
	case s.opts.VivifyPropBudget < 0:
		return 0
	}
	return vivifyPropBudget
}

// bvePeriod resolves how many ticks pass between preprocessor re-runs.
func (s *Solver) bvePeriod() int64 {
	if s.opts.BVETickPeriod > 0 {
		return s.opts.BVETickPeriod
	}
	return bveTickPeriod
}

// maybeInprocess runs an inprocessing tick if enough conflicts have
// accumulated. Called from Solve's restart loop at decision level 0.
func (s *Solver) maybeInprocess() {
	if s.opts.DisableLearning || s.unsatLevel0 {
		return
	}
	if s.Stats.Conflicts < s.nextInprocess {
		return
	}
	s.nextInprocess = s.Stats.Conflicts + s.inprocessInterval()
	s.inprocessTicks++
	s.Stats.InprocessRuns++

	s.vivifyRound()
	if s.unsatLevel0 {
		return
	}
	if !s.opts.DisableSimp && s.inprocessTicks%s.bvePeriod() == 0 &&
		len(s.clauses) >= s.simpMinClauses() {
		s.runSimplify()
	}
}

// vivifyRound probes clauses at level 0: for clause c = l1∨…∨ln it
// assumes ¬l1,…,¬lk in turn and unit-propagates. A conflict means the
// first k literals already form a valid (shorter) clause; a literal
// propagated true means the clause is implied by its prefix plus that
// literal; a literal propagated false is redundant and dropped. The
// clause is eagerly detached while probing (otherwise it would justify
// its own literals) and reattached, shrunk in place, afterwards.
//
// Problem clauses are probed first; whatever budget remains goes to the
// core/mid-tier learnt clauses — exactly the clauses reduceDB keeps, so
// shortening them pays off for the rest of the database's lifetime.
func (s *Solver) vivifyRound() {
	if s.decisionLevel() != 0 {
		return
	}
	startProps := s.Stats.Propagations
	budget := s.vivifyBudget()
	if budget <= 0 {
		return
	}
	for visited := 0; visited < len(s.clauses); visited++ {
		if s.Stats.Propagations-startProps > budget {
			return
		}
		if s.vivifyHead >= len(s.clauses) {
			s.vivifyHead = 0
		}
		c := s.clauses[s.vivifyHead]
		s.vivifyHead++
		if s.ca.deleted(c) || s.ca.size(c) < vivifyMinSize {
			continue
		}
		if !s.vivifyClause(c) {
			return // level-0 contradiction
		}
	}
	for visited := 0; visited < len(s.learnts); visited++ {
		if s.Stats.Propagations-startProps > budget {
			return
		}
		if s.vivifyLearntHead >= len(s.learnts) {
			s.vivifyLearntHead = 0
		}
		c := s.learnts[s.vivifyLearntHead]
		s.vivifyLearntHead++
		if s.ca.deleted(c) || s.ca.size(c) < vivifyMinSize ||
			s.ca.lbd(c) > tierMidLBD {
			continue
		}
		if !s.vivifyClause(c) {
			return
		}
	}
}

// vivifyClause probes one clause; reports false on level-0 unsat.
func (s *Solver) vivifyClause(c cref) bool {
	lits := s.ca.lits(c)
	// Detach both watchers before touching the assignment: the probe must
	// not be allowed to use c itself.
	s.removeWatch(lits[0], c)
	s.removeWatch(lits[1], c)

	s.newDecisionLevel()
	keep := 0          // live prefix literals, compacted to the front
	satisfied := false // clause deletable: satisfied at level 0
	done := false
	for i := 0; i < len(lits) && !done; i++ {
		l := lits[i]
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				// True regardless of the probe assumptions: delete.
				satisfied = true
			} else {
				// ¬l1…¬l(keep) ⊨ l: the clause shrinks to prefix ∨ l.
				lits[keep] = l
				keep++
			}
			done = true
		case lFalse:
			// Redundant under the prefix assumptions (or false at level 0
			// outright): drop l and keep scanning the rest.
		default:
			lits[keep] = l
			keep++
			s.uncheckedEnqueue(l.Not(), crefUndef)
			if s.propagate() != crefUndef {
				// The prefix alone is contradictory when all false — i.e.
				// the prefix is a valid clause on its own.
				done = true
			}
		}
	}
	s.cancelUntil(0)

	oldSize := len(lits)
	switch {
	case satisfied:
		s.detach(c) // watchers already removed; flag reclaims the words
		s.Stats.Vivified++
		s.Stats.VivifyLits += int64(oldSize)
		return true
	case keep == oldSize:
		s.attach(c) // nothing changed
		return true
	}
	s.Stats.Vivified++
	s.Stats.VivifyLits += int64(oldSize - keep)
	switch keep {
	case 0:
		s.unsatLevel0 = true
		return false
	case 1:
		u := lits[0]
		s.detach(c)
		if s.value(u) != lTrue {
			s.uncheckedEnqueue(u, crefUndef)
			if s.propagate() != crefUndef {
				s.unsatLevel0 = true
				return false
			}
		}
		return true
	}
	s.ca.shrink(c, keep)
	s.attach(c)
	return true
}
