package sat

import (
	"context"
	"slices"
	"time"

	"muppet/internal/simp"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; read it with Value/Model.
	Sat
	// Unsat means no satisfying assignment exists under the assumptions;
	// the failed assumptions are available via Core.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Options tune solver behaviour. The zero value is the recommended default
// configuration.
type Options struct {
	// DisableLearning turns the solver into chronological-backtracking DPLL:
	// conflicts still backtrack, but no learnt clauses are retained. It is
	// the reference oracle of FuzzDifferentialCDCL.
	DisableLearning bool
	// DisableSimp turns off SatELite-style preprocessing (subsumption,
	// self-subsuming resolution, bounded variable elimination) of the
	// clause database before search. Preprocessing is on by default;
	// callers that read variables from models or use literals as
	// assumptions/selectors must Freeze them (see Solver.Freeze).
	DisableSimp bool
	// SimpMinClauses is the live problem-clause count below which
	// preprocessing is deferred: on small databases the solve is cheaper
	// than the preprocessing pass, so simplification waits until the
	// database grows past the floor. 0 means the default floor
	// (simpDefaultMinClauses); negative means no floor.
	SimpMinClauses int
	// VivifyPropBudget, when positive, overrides the unit-propagation
	// budget of one vivification round (default vivifyPropBudget); -1
	// disables vivification. Exposed for the inprocessing budget sweeps
	// recorded in EXPERIMENTS.md.
	VivifyPropBudget int64
	// BVETickPeriod, when positive, overrides how many inprocessing ticks
	// pass between full preprocessor re-runs (default bveTickPeriod).
	BVETickPeriod int64

	// Stress settings, set only by the in-package fuzz and unit tests to
	// make every hot path fire on tiny instances. Zero means the default.
	restartBase       int64 // Luby restart unit in conflicts (default 100)
	learntCap         int   // fixed learnt-database limit instead of a growing one
	inprocessInterval int64 // conflicts between inprocessing ticks
}

// lubyUnit returns the Luby restart unit in conflicts.
func (o Options) lubyUnit() int64 {
	if o.restartBase > 0 {
		return o.restartBase
	}
	return 100
}

// Solver is an incremental CDCL SAT solver. Create one with New, introduce
// variables with NewVar, add clauses with AddClause, and call Solve —
// possibly repeatedly, with further clauses and differing assumptions
// between calls. Solver is not safe for concurrent use.
type Solver struct {
	opts Options

	ca      clauseDB // the arena holding every clause's header and literals
	clauses []cref   // problem clauses
	learnts []cref   // learnt clauses

	watches [][]watcher // indexed by literal: clauses watching that literal

	// Deferred watch attachment: AddClause queues clauses here and the
	// queue is flushed before any propagation. A bulk flush into empty
	// watch lists sizes every list with a counting pass and carves them
	// all out of one flat watcher arena (see buildWatches), so loading a
	// large encoding costs O(1) allocations instead of one grow chain per
	// literal.
	pendingWatch []cref
	nWatched     int // watcher entries attached since the lists were last emptied

	assigns  []lbool // per variable
	level    []int32 // decision level per variable
	reason   []cref
	trail    []Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // saved phase: last assigned sign per variable

	seen       []byte
	analyzeBuf []Lit
	toClear    []Var   // seen-flag cleanup scratch for analyze
	addBuf     []Lit   // AddClause normalisation scratch
	levelStamp []int32 // per-decision-level stamp backing computeLBD
	lbdTick    int32

	claInc       float64
	maxLearnts   float64
	learntGrowth float64

	unsatLevel0 bool // empty clause derived; all future Solves are Unsat
	model       []bool
	conflict    []Lit // failed assumptions (negated), valid after Unsat

	assumptions []Lit

	// Cancellation/budget state, set per SolveCtx call (see budget.go).
	ctx         context.Context
	deadline    time.Time
	conflictCap int64 // absolute Stats.Conflicts threshold; 0: none
	propCap     int64 // absolute Stats.Propagations threshold; 0: none
	pollTick    uint32
	stopReason  StopReason

	// Preprocessing state (see simplify.go): the preprocessor owns the
	// frozen/eliminated marks and the model-reconstruction stack.
	elim          *simp.Preprocessor
	simpRan       bool
	simpWatermark int // problem clause count right after the last run
	simpGrowth    int // problem clauses with an unfrozen variable stored since then

	// Inprocessing schedule (see inprocess.go).
	nextInprocess    int64 // Stats.Conflicts threshold of the next tick
	inprocessTicks   int64 // ticks run, to interleave BVE every few ticks
	vivifyHead       int   // rolling cursor into clauses
	vivifyLearntHead int   // rolling cursor into learnts

	// Stats accumulates counters across Solve calls.
	Stats Stats
}

// Stats reports solver work counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64

	// Preprocessing counters (see simplify.go). SimpVarsEliminated is the
	// current number of eliminated variables (net of restores); the others
	// accumulate across runs.
	SimpRuns             int64
	SimpVarsEliminated   int64
	SimpClausesSubsumed  int64
	SimpLitsStrengthened int64
	SimpClausesRemoved   int64
	SimpRestored         int64

	// Search-core counters: chronological backtracks taken instead of long
	// backjumps, conflict clauses deleted because the learnt clause
	// subsumed them on the fly, inprocessing passes run, clauses shortened
	// by vivification (and the literals they lost), and arena compactions.
	ChronoBacktracks int64
	OTFSubsumed      int64
	InprocessRuns    int64
	Vivified         int64
	VivifyLits       int64
	ArenaGCs         int64
}

// New creates an empty solver with default options.
func New() *Solver { return NewWithOptions(Options{}) }

// NewWithOptions creates an empty solver with the given options.
func NewWithOptions(opts Options) *Solver {
	s := &Solver{
		opts:         opts,
		varInc:       1,
		claInc:       1,
		maxLearnts:   0,
		learntGrowth: 1.3,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of live learnt clauses — the part of the
// clause database that grows with search effort, and therefore the part a
// long-lived session's memory accounting must include.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// ArenaBytes reports the clause arena's current backing size in bytes —
// the flat allocation that replaces per-clause heap objects.
func (s *Solver) ArenaBytes() int64 { return s.ca.bytes() }

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false branch first
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// Reserve pre-sizes the solver for a batch the caller is about to add:
// vars new variables and up to clauses problem clauses holding lits
// literals in total. The arena, the problem-clause and pending-watch
// lists, and every per-variable table grow once here instead of step by
// step as the batch arrives. It is only a capacity hint: counts that
// overshoot waste memory, counts that undershoot fall back to growing.
func (s *Solver) Reserve(vars, clauses, lits int) {
	s.ca.data = slices.Grow(s.ca.data, lits+clauses*claHdrWords)
	s.clauses = slices.Grow(s.clauses, clauses)
	s.pendingWatch = slices.Grow(s.pendingWatch, clauses)
	s.assigns = slices.Grow(s.assigns, vars)
	s.level = slices.Grow(s.level, vars)
	s.reason = slices.Grow(s.reason, vars)
	s.activity = slices.Grow(s.activity, vars)
	s.polarity = slices.Grow(s.polarity, vars)
	s.seen = slices.Grow(s.seen, vars)
	s.watches = slices.Grow(s.watches, 2*vars)
	s.order.heap = slices.Grow(s.order.heap, vars)
	s.order.indices = slices.Grow(s.order.indices, vars)
}

func (s *Solver) value(l Lit) lbool {
	return s.assigns[l.Var()].xorSign(l.Neg())
}

// Value returns v's value in the most recent satisfying model.
// Only meaningful after Solve returned Sat.
func (s *Solver) Value(v Var) bool { return s.model[v] }

// Model returns a copy of the most recent satisfying assignment, indexed by
// variable. Only meaningful after Solve returned Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	copy(m, s.model)
	return m
}

// Core returns the failed assumptions from the last Unsat Solve: a subset A'
// of the assumptions such that the clauses together with A' are
// unsatisfiable. Literals are returned in their assumption polarity.
func (s *Solver) Core() []Lit {
	core := make([]Lit, len(s.conflict))
	for i, l := range s.conflict {
		core[i] = l.Not() // conflict stores negations of failed assumptions
	}
	return core
}

// SetPhases seeds the saved-phase array from a model prefix: the next
// search tries each covered variable at its model value first. Combined
// with chronological backtracking this is what lets the totalizer bound
// descent re-descend from the previous near-optimal assignment instead
// of replaying the search from the root (see internal/target).
func (s *Solver) SetPhases(model []bool) {
	n := len(model)
	if n > len(s.polarity) {
		n = len(s.polarity)
	}
	for v := 0; v < n; v++ {
		s.polarity[v] = !model[v]
	}
}

// SetPhaseLit biases the next search to try l's variable at the polarity
// that makes l true.
func (s *Solver) SetPhaseLit(l Lit) {
	if v := l.Var(); int(v) < len(s.polarity) {
		s.polarity[v] = l.Neg()
	}
}

// AddClause adds a disjunction of literals. It returns false if the clause
// set is now known unsatisfiable at level 0 (an empty clause was derived).
// Duplicate literals are merged and tautologies are dropped. Unit clauses
// are asserted immediately but propagated lazily: a conflict reachable
// only through non-unit propagation surfaces at the next Solve.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatLevel0 {
		return false
	}
	s.cancelUntil(0)

	// A clause mentioning an eliminated variable re-activates it: the
	// clauses recorded at its elimination come back first, so the new
	// clause constrains the variable it names, not a ghost.
	if s.elim != nil && s.elim.NumEliminated() > 0 {
		for _, l := range lits {
			if s.elim.Eliminated(int32(l.Var())) {
				s.restoreVar(l.Var())
			}
		}
		if s.unsatLevel0 {
			return false
		}
	}

	// Normalise into the reused scratch buffer: dedupe, drop level-0-false
	// lits, detect tautology and level-0-true lits. Nested AddClause calls
	// (variable restoration above) finish before the scratch is touched.
	out := s.addBuf[:0]
	for _, l := range lits {
		if l.Var() < 0 || int(l.Var()) >= len(s.assigns) {
			panic("sat: AddClause literal for unknown variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out[:0]

	switch len(out) {
	case 0:
		s.unsatLevel0 = true
		return false
	case 1:
		// Enqueue without propagating: the assignment is visible to the
		// normalisation of every later AddClause (so unit chains still
		// resolve here), while the queue drains at the next Solve — which
		// keeps the bulk clause load free of per-unit watch flushes.
		s.uncheckedEnqueue(out[0], crefUndef)
		return true
	}
	c := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, c)
	if !s.opts.DisableSimp && s.mentionsUnfrozen(out) {
		s.simpGrowth++
	}
	s.pendingWatch = append(s.pendingWatch, c)
	return true
}

// watchBulkMin is the queued-clause count below which flushWatches just
// attaches one by one: tiny batches don't repay the counting pass.
const watchBulkMin = 1024

// flushWatches attaches every clause queued by AddClause. A large batch
// (a bulk encoding load, or a totalizer layer added between incremental
// Solve calls) rebuilds the watch lists in one carved pass; small batches
// are attached individually.
func (s *Solver) flushWatches() {
	if len(s.pendingWatch) == 0 {
		return
	}
	pend := s.pendingWatch
	s.pendingWatch = s.pendingWatch[:0]
	if len(pend) >= watchBulkMin {
		s.buildWatches(pend)
		return
	}
	for _, c := range pend {
		s.attach(c)
	}
}

// buildWatches rebuilds every watch list with the given clause lists
// appended: a counting sweep sizes each list (current entries plus new
// watchers), the lists are carved out of a single flat watcher arena
// (capacity-clamped so a later append cannot clobber a neighbour),
// existing entries are copied over, and a fill sweep appends the new
// ones. Each list gets ~50% slack over its initial population:
// propagation migrates watchers between lists continuously, and an
// exact-size carve would turn every migration into a list reallocation.
func (s *Solver) buildWatches(lists ...[]cref) {
	cnt := make([]int32, len(s.watches))
	for i, ws := range s.watches {
		cnt[i] = int32(len(ws))
	}
	added := 0
	for _, cls := range lists {
		for _, c := range cls {
			lits := s.ca.lits(c)
			cnt[lits[0]]++
			cnt[lits[1]]++
			added += 2
		}
	}
	pad := func(n int) int { return n + n/2 + 4 }
	padded := 0
	for _, n := range cnt {
		padded += pad(int(n))
	}
	arena := make([]watcher, padded)
	off := 0
	for i := range s.watches {
		n := int(cnt[i])
		lst := arena[off : off : off+pad(n)]
		s.watches[i] = append(lst, s.watches[i]...)
		off += pad(n)
	}
	for _, cls := range lists {
		for _, c := range cls {
			lits := s.ca.lits(c)
			s.watches[lits[0]] = append(s.watches[lits[0]], mkWatcher(c, lits[1]))
			s.watches[lits[1]] = append(s.watches[lits[1]], mkWatcher(c, lits[0]))
		}
	}
	s.nWatched += added
}

func (s *Solver) attach(c cref) {
	lits := s.ca.lits(c)
	// Watch the first two literals; the watch list for a literal holds
	// clauses in which that literal is watched, visited when it goes false.
	s.watches[lits[0]] = append(s.watches[lits[0]], mkWatcher(c, lits[1]))
	s.watches[lits[1]] = append(s.watches[lits[1]], mkWatcher(c, lits[0]))
	s.nWatched += 2
}

// detach lazily marks a clause deleted; watch lists are purged on scan and
// the arena words are reclaimed by the next garbage collection.
func (s *Solver) detach(c cref) { s.ca.delete(c) }

// removeWatch eagerly deletes c from l's watch list (vivification needs
// the clause fully detached while it probes, not lazily flagged).
func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].clause() == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assigns[v] = lTrue.xorSign(l.Neg())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

// cancelUntil backtracks to the given decision level, unassigning variables
// and saving their phases.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Neg()
		s.assigns[v] = lUndef
		s.reason[v] = crefUndef
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	if s.qhead > len(s.trail) {
		s.qhead = len(s.trail)
	}
}

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

func (s *Solver) varDecay() { s.varInc /= 0.95 }

func (s *Solver) claBump(c cref) {
	a := s.ca.act(c) + float32(s.claInc)
	s.ca.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setAct(lc, s.ca.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecay() { s.claInc /= 0.999 }

// pickBranchVar selects the next decision variable by activity.
// Eliminated variables are skipped: no live clause mentions them, and
// their model values come from the reconstruction stack instead.
func (s *Solver) pickBranchVar() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == lUndef && !s.eliminatedVar(v) {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// maybeGC compacts the arena when a quarter of it is dead words. Callers
// must hold no cref locals across the call (every stored cref — clause
// lists, reasons, watches — is remapped; locals are not).
func (s *Solver) maybeGC() {
	if len(s.ca.data) >= 4096 && s.ca.wasted*4 >= len(s.ca.data) {
		s.garbageCollect()
	}
}

// garbageCollect compacts live clauses into a fresh arena and remaps
// every outstanding clause reference: the problem and learnt lists, the
// reason column, and the watch lists (purging watchers of dead clauses on
// the way). Each moved clause leaves a forwarding address in its old
// header, so a clause reachable from several places is copied once.
// Offsets change but list order does not, which is what keeps the
// deterministic-output guarantees stable.
func (s *Solver) garbageCollect() {
	old := s.ca
	to := clauseDB{data: make([]Lit, 0, len(old.data)-old.wasted)}
	reloc := func(c cref) cref {
		if old.deleted(c) {
			return crefUndef
		}
		if old.reloced(c) {
			return old.relocTarget(c)
		}
		n := to.alloc(old.lits(c), old.learnt(c))
		to.data[n] |= old.data[c] & claFlagUsed // tier reprieve flag
		to.data[n+1] = old.data[c+1]            // LBD
		to.data[n+2] = old.data[c+2]            // activity
		old.setReloced(c, n)
		return n
	}

	cls := s.clauses[:0]
	for _, c := range s.clauses {
		if n := reloc(c); n != crefUndef {
			cls = append(cls, n)
		}
	}
	s.clauses = cls
	lrn := s.learnts[:0]
	for _, c := range s.learnts {
		if n := reloc(c); n != crefUndef {
			lrn = append(lrn, n)
		}
	}
	s.learnts = lrn

	// Reasons: level-0 facts need none (analysis never dereferences them);
	// above level 0 a reason clause is locked and therefore alive.
	for _, l := range s.trail {
		v := l.Var()
		if s.level[v] == 0 {
			s.reason[v] = crefUndef
			continue
		}
		if r := s.reason[v]; r != crefUndef {
			s.reason[v] = reloc(r)
		}
	}

	for i := range s.watches {
		ws := s.watches[i]
		out := ws[:0]
		for _, w := range ws {
			if n := reloc(w.clause()); n != crefUndef {
				out = append(out, mkWatcher(n, w.blocker()))
			}
		}
		s.watches[i] = out
	}
	pend := s.pendingWatch[:0]
	for _, c := range s.pendingWatch {
		if n := reloc(c); n != crefUndef {
			pend = append(pend, n)
		}
	}
	s.pendingWatch = pend

	s.ca = to
	s.Stats.ArenaGCs++
}
