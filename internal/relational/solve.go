package relational

import (
	"context"

	"muppet/internal/boolcirc"
	"muppet/internal/sat"
)

// Problem couples a formula with bounds over a universe.
type Problem struct {
	Bounds  *Bounds
	Formula Formula
}

// Session is a live solving context: a translator, its CNF emission, and
// the backing SAT solver. It supports incremental assertion of formulas,
// assumption-based checks, and instance extraction — the shape of access
// that Muppet's algorithms (local consistency, reconciliation, minimal
// edits, unsat cores) need.
type Session struct {
	tr  *Translator
	cnf *boolcirc.CNF
}

// NewSession builds a session over bounds with default components.
func NewSession(b *Bounds) *Session {
	return NewSessionWith(b, boolcirc.New(), sat.New())
}

// NewSessionWith builds a session from explicit components, allowing custom
// factory and solver options (used by the ablation benchmarks).
func NewSessionWith(b *Bounds, f *boolcirc.Factory, s *sat.Solver) *Session {
	return NewSessionWithOptions(b, f, s, boolcirc.CNFOptions{})
}

// NewSessionWithOptions additionally configures the circuit-to-CNF
// emission (polarity-aware Tseitin, AIG sweeping) — the seam the encoding
// ablations and the muppet-level encoding knob use.
func NewSessionWithOptions(b *Bounds, f *boolcirc.Factory, s *sat.Solver, opts boolcirc.CNFOptions) *Session {
	return &Session{
		tr:  NewTranslator(b, f),
		cnf: boolcirc.NewCNFWithOptions(f, s, opts),
	}
}

// Translator exposes the session's translator.
func (ss *Session) Translator() *Translator { return ss.tr }

// CNF exposes the session's circuit-to-CNF emitter.
func (ss *Session) CNF() *boolcirc.CNF { return ss.cnf }

// Solver exposes the backing SAT solver.
func (ss *Session) Solver() *sat.Solver { return ss.cnf.Solver() }

// Assert grounds f and adds it as a hard constraint.
func (ss *Session) Assert(f Formula) {
	ss.cnf.Assert(ss.tr.Formula(f))
}

// Lit grounds f and returns a solver literal equivalent to it, suitable for
// use as an assumption or selector.
func (ss *Session) Lit(f Formula) sat.Lit {
	return ss.cnf.LitFor(ss.tr.Formula(f))
}

// Solve checks satisfiability under optional assumptions.
func (ss *Session) Solve(assumps ...sat.Lit) sat.Status {
	return ss.Solver().Solve(assumps...)
}

// SolveCtx checks satisfiability under optional assumptions, honouring a
// cancellation context and a work budget. An Unknown return means the
// budget stopped the search: the caller must treat the query as
// indeterminate (neither a model nor a core exists) — see
// Solver().StopReason for the cause.
func (ss *Session) SolveCtx(ctx context.Context, b sat.Budget, assumps ...sat.Lit) sat.Status {
	return ss.Solver().SolveCtx(ctx, b, assumps...)
}

// CacheStats reports the translation cache counters of this session.
func (ss *Session) CacheStats() CacheStats { return ss.tr.Cache() }

// Instance decodes the most recent satisfying model into an instance over
// the session's bounds. Call only after a Sat result.
func (ss *Session) Instance() *Instance {
	b := ss.tr.Bounds()
	in := NewInstance(b.Universe())
	for _, r := range b.Relations() {
		ts := b.Lower(r).Clone()
		for _, rv := range ss.tr.RelationVars(r) {
			id := ss.tr.Factory().VarID(rv.Ref)
			if ss.cnf.VarValue(id) {
				ts.Add(rv.Tuple)
			}
		}
		in.Set(r, ts)
	}
	return in
}

// TupleLit returns the solver literal controlling the presence of tuple t
// in relation r, and whether t is actually free (in upper minus lower).
// Tuples in the lower bound or outside the upper bound are not free.
// Lookup is O(1) via the translator's per-relation tuple index; workspace
// construction calls this once per knob, so the previous linear scan made
// setup quadratic in the free-tuple count.
func (ss *Session) TupleLit(r *Relation, t Tuple) (sat.Lit, bool) {
	v, ok := ss.tr.TupleVar(r, t)
	if !ok {
		return 0, false
	}
	return ss.cnf.LitFor(v), true
}

// Solve finds an instance satisfying the problem, or reports UNSAT. It is
// the one-shot convenience entry point; richer clients use Session.
func Solve(p Problem) (*Instance, sat.Status) {
	ss := NewSession(p.Bounds)
	ss.Assert(p.Formula)
	st := ss.Solve()
	if st != sat.Sat {
		return nil, st
	}
	return ss.Instance(), st
}
