package sat

import (
	"math/rand"
	"testing"
)

// randomClauses builds a random CNF over nVars variables of the solver s
// (which must already own them).
func randomClauses(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	var out [][]Lit
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		seen := map[Var]bool{}
		var c []Lit
		for len(c) < width {
			v := Var(rng.Intn(nVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			c = append(c, MkLit(v, rng.Intn(2) == 0))
		}
		out = append(out, c)
	}
	return out
}

func satisfies(clauses [][]Lit, model []bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestSimpMatchesNoSimpVerdicts is the solver-level equivalence check:
// over random formulas, preprocessing changes neither the verdict nor the
// validity of the returned model.
func TestSimpMatchesNoSimpVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(8)
		clauses := randomClauses(rng, nVars, 3+rng.Intn(30))
		run := func(disable bool) (Status, []bool) {
			s := NewWithOptions(Options{DisableSimp: disable, SimpMinClauses: -1})
			for i := 0; i < nVars; i++ {
				s.NewVar()
			}
			for _, c := range clauses {
				if !s.AddClause(c...) {
					return Unsat, nil
				}
			}
			st := s.Solve()
			if st == Sat {
				return st, s.Model()
			}
			return st, nil
		}
		stOn, mOn := run(false)
		stOff, _ := run(true)
		if stOn != stOff {
			t.Fatalf("iter %d: simp verdict %v, plain verdict %v\n%v", iter, stOn, stOff, clauses)
		}
		if stOn == Sat && !satisfies(clauses, mOn) {
			t.Fatalf("iter %d: extended model does not satisfy the formula\n%v", iter, clauses)
		}
	}
}

// TestSimpIncrementalAddRestores checks that adding a clause over an
// eliminated variable restores it and keeps verdicts exact.
func TestSimpIncrementalAddRestores(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.Freeze(a)
	// b is a definition variable between a and c; with only a frozen, b
	// and c are elimination candidates.
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if !s.Eliminated(b) && !s.Eliminated(c) {
		t.Fatal("expected at least one of b, c to be eliminated")
	}
	// A new clause forcing ¬c and then a: propagation must see a → b → c
	// again, so the chain must be restored.
	s.AddClause(NegLit(c))
	s.AddClause(PosLit(a))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("want unsat after restoring chain, got %v", st)
	}
}

// TestSimpFrozenAssumptionsSurvive checks that variables only ever used
// as assumptions keep working: Solve freezes them on the fly.
func TestSimpFrozenAssumptionsSurvive(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	sel, x := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(sel), PosLit(x))
	s.AddClause(NegLit(sel), NegLit(x))
	if st := s.Solve(); st != Sat {
		t.Fatalf("unconstrained solve: want sat, got %v", st)
	}
	if st := s.Solve(PosLit(sel)); st != Unsat {
		t.Fatalf("assuming sel: want unsat, got %v", st)
	}
	core := s.Core()
	if len(core) != 1 || core[0] != PosLit(sel) {
		t.Fatalf("core = %v, want [sel]", core)
	}
}

// TestSimpStatsReported checks the counters surface.
func TestSimpStatsReported(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	vs := make([]Var, 8)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	// A chain of definitions: plenty to eliminate.
	for i := 0; i+1 < len(vs); i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if s.Stats.SimpRuns == 0 {
		t.Fatal("expected a preprocessing run")
	}
	if s.Stats.SimpVarsEliminated == 0 {
		t.Fatal("expected eliminated variables")
	}
}

// TestSimpGrowthCountsOnlyUnfrozenClauses pins the re-run trigger: after
// the first pass, a batch of clauses over frozen variables alone (the
// shape of a totalizer over frozen soft literals) must not buy a second
// full pass, however large; the same number of clauses each naming an
// unfrozen variable must.
func TestSimpGrowthCountsOnlyUnfrozenClauses(t *testing.T) {
	s := NewWithOptions(Options{SimpMinClauses: -1})
	vs := make([]Var, 64)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i+1 < len(vs); i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	if s.Stats.SimpRuns != 1 {
		t.Fatalf("SimpRuns = %d after the first solve, want 1", s.Stats.SimpRuns)
	}

	n := simpMinGrowth(s.simpWatermark) + 1
	frozen := make([]Var, n+1)
	for i := range frozen {
		frozen[i] = s.NewVar()
		s.Freeze(frozen[i])
	}
	for i := 0; i < n; i++ {
		s.AddClause(NegLit(frozen[i]), PosLit(frozen[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("want sat after the frozen-only batch")
	}
	if s.Stats.SimpRuns != 1 {
		t.Fatalf("SimpRuns = %d after %d frozen-only clauses, want 1", s.Stats.SimpRuns, n)
	}

	for i := 0; i < n; i++ {
		u := s.NewVar()
		s.AddClause(NegLit(frozen[i]), PosLit(u))
	}
	if s.Solve() != Sat {
		t.Fatal("want sat after the mixed batch")
	}
	if s.Stats.SimpRuns != 2 {
		t.Fatalf("SimpRuns = %d after %d clauses with an unfrozen variable, want 2", s.Stats.SimpRuns, n)
	}
}
