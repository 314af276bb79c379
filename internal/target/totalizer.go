package target

import "muppet/internal/sat"

// totalizer is a truncated totalizer cardinality encoder (Bailleux &
// Boufkhad) over a set of input literals. Its outputs form a unary
// counter: outputs[k-1] is forced true whenever at least k inputs are
// true, for k up to the truncation bound. Only the ≥-direction clauses
// are emitted — exactly what upper-bound tightening needs — and the tree
// is truncated at the initial upper bound, so every clause added here is
// reused verbatim across later bound tightenings (the Pardinus-style
// incremental use: the bound only ever decreases during minimisation).
type totalizer struct {
	outputs []sat.Lit
}

// newTotalizer builds the encoder for the given inputs, truncated at
// bound outputs. It adds O(n·bound) clauses to the solver, reserving room
// for all of them first (see totalizerSize). A nil encoder (no inputs or
// non-positive bound) is returned as an empty totalizer on which atMost
// is a no-op.
func newTotalizer(s *sat.Solver, inputs []sat.Lit, bound int) *totalizer {
	t := &totalizer{}
	if len(inputs) == 0 || bound <= 0 {
		return t
	}
	if bound > len(inputs) {
		bound = len(inputs)
	}
	var sz totalizerSize
	sz.build(len(inputs), bound)
	s.Reserve(sz.vars, sz.clauses, sz.lits)
	t.outputs = build(s, inputs, bound)
	return t
}

// totalizerSize is a dry run of build: the same recursion over counter
// lengths only, totalling the variables, clauses and literals the real
// build adds. Tens of thousands of clauses land in one go on a large
// descent; sizing the solver up front spares the arena and the
// per-variable tables their step-by-step regrowth.
type totalizerSize struct{ vars, clauses, lits int }

// build mirrors build for n inputs and returns the counter length.
func (sz *totalizerSize) build(n, m int) int {
	if n == 1 {
		return 1
	}
	half := n / 2
	return sz.merge(sz.build(half, m), sz.build(n-half, m), m)
}

// merge mirrors merge for child counters of lengths a and b: one clause
// per pair (i, j) with 1 ≤ i+j ≤ min(a+b, m), binary when i or j is 0.
func (sz *totalizerSize) merge(a, b, m int) int {
	n := min(a+b, m)
	sz.vars += n
	for i := 0; i <= a && i <= n; i++ {
		js := min(b, n-i) // pairs (i, 1..js) plus, for i > 0, (i, 0)
		if i == 0 {
			sz.clauses += js
			sz.lits += 2 * js
		} else {
			sz.clauses += js + 1
			sz.lits += 2 + 3*js
		}
	}
	return n
}

// build recursively merges the unary counters of the two halves.
func build(s *sat.Solver, lits []sat.Lit, m int) []sat.Lit {
	if len(lits) == 1 {
		return lits[:1:1]
	}
	half := len(lits) / 2
	return merge(s, build(s, lits[:half], m), build(s, lits[half:], m), m)
}

// merge combines two child counters a and b into a parent counter of
// length min(len(a)+len(b), m), emitting aᵢ ∧ bⱼ → outᵢ₊ⱼ for i+j ≤ m.
// Combinations exceeding m need no clause: a count beyond the truncation
// still forces out_m through the (i′,j′) pair with i′+j′ = m, because the
// child counters are themselves monotone under these clauses.
func merge(s *sat.Solver, a, b []sat.Lit, m int) []sat.Lit {
	n := len(a) + len(b)
	if n > m {
		n = m
	}
	out := make([]sat.Lit, n)
	for k := range out {
		v := s.NewVar()
		// Counter outputs become assumption/cap literals later; keep them
		// out of preprocessing's reach.
		s.Freeze(v)
		out[k] = sat.PosLit(v)
	}
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			k := i + j
			if k == 0 || k > n {
				continue
			}
			switch {
			case i == 0:
				s.AddClause(b[j-1].Not(), out[k-1])
			case j == 0:
				s.AddClause(a[i-1].Not(), out[k-1])
			default:
				s.AddClause(a[i-1].Not(), b[j-1].Not(), out[k-1])
			}
		}
	}
	return out
}

// atMostLit returns a literal that, when true, caps the input count at k.
// Valid for 0 ≤ k < len(outputs) + truncation slack; callers only probe
// below the truncation bound. ok is false when the cap is outside the
// encoded range (k ≥ number of encoded outputs), i.e. no constraint.
func (t *totalizer) atMostLit(k int) (sat.Lit, bool) {
	if k < 0 || k >= len(t.outputs) {
		return sat.LitUndef, false
	}
	return t.outputs[k].Not(), true
}

// assertAtMost permanently caps the input count at k (linear descent).
// It reports false when the solver derived level-0 unsatisfiability,
// which proves no model below the current bound exists.
func (t *totalizer) assertAtMost(s *sat.Solver, k int) bool {
	l, ok := t.atMostLit(k)
	if !ok {
		return true
	}
	return s.AddClause(l)
}
