package sat

import "muppet/internal/simp"

// This file couples the solver to the internal/simp preprocessor: the
// clause database is simplified (subsumption, self-subsuming resolution,
// bounded variable elimination) before search, models are extended back
// over eliminated variables, and incremental additions that mention an
// eliminated variable transparently restore it. Preprocessing is on by
// default; Options.DisableSimp is the ablation switch.

// pp returns the solver's preprocessor, allocating it on first use.
func (s *Solver) pp() *simp.Preprocessor {
	if s.elim == nil {
		s.elim = simp.New()
	}
	return s.elim
}

// Freeze marks v as structurally important: preprocessing must never
// eliminate it. Callers freeze every variable whose identity matters
// outside the clause database — variables they will read from models,
// assume, or use as selectors. Assumption variables are additionally
// frozen automatically at each Solve. Freezing an eliminated variable
// restores it first. A no-op under DisableSimp.
func (s *Solver) Freeze(v Var) {
	if s.opts.DisableSimp {
		return
	}
	p := s.pp()
	if p.Eliminated(int32(v)) {
		s.restoreVar(v)
	}
	p.Freeze(int32(v))
}

// FreezeLit freezes the literal's variable.
func (s *Solver) FreezeLit(l Lit) { s.Freeze(l.Var()) }

// Eliminated reports whether v is currently eliminated by preprocessing.
// Eliminated variables occur in no live clause and are excluded from
// decisions; their model values come from the reconstruction stack.
func (s *Solver) Eliminated(v Var) bool { return s.eliminatedVar(v) }

// eliminatedVar is the hot-path form of Eliminated.
func (s *Solver) eliminatedVar(v Var) bool {
	return s.elim != nil && s.elim.Eliminated(int32(v))
}

// restoreVar re-introduces an eliminated variable by re-adding the
// clauses recorded at its elimination. Re-adding may recursively restore
// other eliminated variables those clauses mention.
func (s *Solver) restoreVar(v Var) {
	cls := s.elim.Restore(int32(v))
	if cls == nil {
		return
	}
	s.Stats.SimpRestored++
	s.order.push(v)
	buf := make([]Lit, 0, 8)
	for _, c := range cls {
		buf = buf[:0]
		for _, l := range c {
			buf = append(buf, Lit(l))
		}
		s.AddClause(buf...)
	}
}

// simpMinGrowth is how many new problem clauses with an unfrozen variable
// must accumulate before preprocessing runs again on an already-simplified
// database of base clauses.
func simpMinGrowth(base int) int {
	g := base / 4
	if g < 256 {
		g = 256
	}
	return g
}

// simpDefaultMinClauses is the default preprocessing floor: below it a
// solve finishes faster than a preprocessing pass, so running one is a
// net loss. The Fig. 1 walkthrough (hundreds of clauses) stays under it;
// the generated scaling scenarios from ~6 services upward cross it.
const simpDefaultMinClauses = 4000

// simpMinClauses resolves the Options floor (0 → default, <0 → none).
func (s *Solver) simpMinClauses() int {
	if m := s.opts.SimpMinClauses; m != 0 {
		if m < 0 {
			return 0
		}
		return m
	}
	return simpDefaultMinClauses
}

// maybeSimplify runs preprocessing when the database is big enough to be
// worth it and is fresh or has grown enough since the last run. Called
// from Solve at level 0, after propagation and assumption restoration.
// Below the floor nothing is marked done, so a growing incremental
// session gets its first pass as soon as it crosses the floor. The floor
// weighs the whole database, since search pays for every clause; the
// re-run watermark counts only s.simpGrowth, the problem clauses that
// named an unfrozen variable when AddClause stored them. A clause over
// frozen variables alone gives elimination nothing to act on, so a batch
// built entirely from frozen literals (the minimal-edit descent's
// totalizer: frozen outputs over frozen soft literals) never buys another
// full pass and arena rebuild mid-descent.
func (s *Solver) maybeSimplify() {
	if s.opts.DisableSimp || s.unsatLevel0 {
		return
	}
	if !s.simpRan && len(s.clauses) < s.simpMinClauses() {
		return
	}
	if s.simpRan && s.simpGrowth < simpMinGrowth(s.simpWatermark) {
		return
	}
	s.runSimplify()
}

// mentionsUnfrozen reports whether preprocessing could eliminate any
// variable of the clause.
func (s *Solver) mentionsUnfrozen(lits []Lit) bool {
	if s.elim == nil {
		return true
	}
	for _, l := range lits {
		if !s.elim.Frozen(int32(l.Var())) {
			return true
		}
	}
	return false
}

// runSimplify hands the live problem clauses (reduced under the level-0
// assignment) to the preprocessor and rebuilds the solver's clause
// database — a fresh arena with the simplified set — plus watches and
// trail bookkeeping. Learnt clauses survive (with their LBD/activity)
// unless they mention an eliminated variable.
func (s *Solver) runSimplify() {
	s.flushWatches() // queued crefs must not outlive the arena rebuild below
	p := s.pp()
	p.EnsureVars(len(s.assigns))

	// Build the preprocessor input over one flat backing buffer: the total
	// literal count is known from the arena headers, so the buffer never
	// reallocates and the per-clause sub-slices stay valid. (simp copies
	// its input clauses, so handing it views is safe.)
	total := 0
	for _, c := range s.clauses {
		if !s.ca.deleted(c) {
			total += s.ca.size(c)
		}
	}
	buf := make([]simp.Lit, 0, total)
	spans := make([][2]int32, 0, len(s.clauses))
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			continue
		}
		lo := len(buf)
		sat0 := false
		for _, l := range s.ca.lits(c) {
			switch s.value(l) {
			case lTrue:
				sat0 = true
			case lFalse:
			default:
				buf = append(buf, simp.Lit(l))
			}
			if sat0 {
				break
			}
		}
		if sat0 {
			buf = buf[:lo]
			continue
		}
		switch len(buf) - lo {
		case 0:
			s.unsatLevel0 = true
			return
		case 1:
			// propagate ran just before; still, handle a stray unit.
			u := Lit(buf[lo])
			buf = buf[:lo]
			s.uncheckedEnqueue(u, crefUndef)
			if s.propagate() != crefUndef {
				s.unsatLevel0 = true
				return
			}
		default:
			spans = append(spans, [2]int32{int32(lo), int32(len(buf))})
		}
	}
	in := make([][]simp.Lit, len(spans))
	for i, sp := range spans {
		in[i] = buf[sp[0]:sp[1]]
	}

	res := p.Run(in, func() bool { return s.stopNow() != StopNone })
	s.Stats.SimpRuns++
	s.Stats.SimpVarsEliminated = p.Stats.VarsEliminated
	s.Stats.SimpClausesSubsumed = p.Stats.ClausesSubsumed
	s.Stats.SimpLitsStrengthened = p.Stats.LitsStrengthened
	s.Stats.SimpClausesRemoved += p.Stats.ClausesIn - p.Stats.ClausesOut
	if res.Unsat {
		s.unsatLevel0 = true
		return
	}

	// Rebuild the arena from scratch: the simplified problem clauses first,
	// then the surviving learnts copied over with their LBD and activity.
	// Rebuilding (rather than patching) leaves zero wasted words and packs
	// the post-simplification database contiguously.
	words := 0
	for _, lits := range res.Clauses {
		words += len(lits) + claHdrWords
	}
	newCA := clauseDB{data: make([]Lit, 0, words)}
	newCls := make([]cref, 0, len(res.Clauses))
	conv := make([]Lit, 0, 16)
	for _, lits := range res.Clauses {
		conv = conv[:0]
		for _, l := range lits {
			conv = append(conv, Lit(l))
		}
		newCls = append(newCls, newCA.alloc(conv, false))
	}
	newLrn := make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			continue
		}
		drop := false
		for _, l := range s.ca.lits(c) {
			if p.Eliminated(int32(l.Var())) {
				drop = true
				break
			}
		}
		if drop {
			s.Stats.Removed++
			continue
		}
		n := newCA.alloc(s.ca.lits(c), true)
		newCA.data[n] |= s.ca.data[c] & claFlagUsed // tier reprieve flag
		newCA.setLBD(n, s.ca.lbd(c))
		newCA.setAct(n, s.ca.act(c))
		newLrn = append(newLrn, n)
	}
	s.ca = newCA
	s.clauses = newCls
	s.learnts = newLrn
	s.vivifyHead = 0 // the rolling vivification cursors index the lists
	s.vivifyLearntHead = 0

	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.nWatched = 0
	// Re-attaching one clause at a time would redo the per-literal grow
	// chains the bulk loader avoids; carve the rebuilt lists instead.
	s.buildWatches(s.clauses, s.learnts)
	// The level-0 trail survives the rebuild, but its reason references
	// point into the discarded arena; level-0 facts need no reason.
	for _, l := range s.trail {
		s.reason[l.Var()] = crefUndef
	}
	s.qhead = 0
	for _, u := range res.Units {
		l := Lit(u)
		switch s.value(l) {
		case lTrue:
			continue
		case lFalse:
			s.unsatLevel0 = true
			return
		}
		s.uncheckedEnqueue(l, crefUndef)
	}
	if s.propagate() != crefUndef {
		s.unsatLevel0 = true
		return
	}
	s.simpRan = true
	s.simpWatermark = len(s.clauses)
	s.simpGrowth = 0
}

// extendModel gives eliminated variables model values consistent with
// their recorded clauses, so Value/Model behave exactly as without
// preprocessing.
func (s *Solver) extendModel() {
	if s.elim != nil {
		s.elim.Extend(s.model)
	}
}
