package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce reports satisfiability of a CNF over nVars variables by
// exhaustive enumeration. Clauses use the package Lit encoding.
func bruteForce(nVars int, clauses [][]Lit) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := mask>>uint(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func modelSatisfies(model []bool, clauses [][]Lit) bool {
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if model[l.Var()] != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func newSolverWith(nVars int, clauses [][]Lit, opts Options) *Solver {
	s := NewWithOptions(opts)
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		if !s.AddClause(c...) {
			return s
		}
	}
	return s
}

func randomCNF(rng *rand.Rand, nVars, nClauses, maxLen int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		n := 1 + rng.Intn(maxLen)
		c := make([]Lit, n)
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
		}
		clauses[i] = c
	}
	return clauses
}

func TestLitEncoding(t *testing.T) {
	l := PosLit(3)
	if l.Var() != 3 || l.Neg() {
		t.Fatalf("PosLit(3) decoded to var=%d neg=%v", l.Var(), l.Neg())
	}
	n := l.Not()
	if n.Var() != 3 || !n.Neg() {
		t.Fatalf("Not() gave var=%d neg=%v", n.Var(), n.Neg())
	}
	if n.Not() != l {
		t.Fatal("double negation is not identity")
	}
	if MkLit(5, true) != NegLit(5) || MkLit(5, false) != PosLit(5) {
		t.Fatal("MkLit disagrees with PosLit/NegLit")
	}
	if PosLit(7).String() != "x7" || NegLit(7).String() != "¬x7" {
		t.Fatalf("unexpected literal strings %q %q", PosLit(7), NegLit(7))
	}
}

func TestEmptyProblemIsSat(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty problem: got %v, want SAT", st)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Value(v) {
		t.Fatal("unit clause x not reflected in model")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if ok := s.AddClause(NegLit(v)); ok {
		t.Fatal("adding contradictory unit should report unsat")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	if s.Okay() {
		t.Fatal("Okay() should be false after level-0 contradiction")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	s.AddClause(PosLit(v), NegLit(v))
	s.AddClause(NegLit(w))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Value(w) {
		t.Fatal("w should be false")
	}
}

func TestDuplicateLiteralsMerged(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v), PosLit(v), PosLit(v))
	if st := s.Solve(); st != Sat || !s.Value(v) {
		t.Fatalf("got %v value=%v", st, s.Value(v))
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x0 ∧ (¬x0∨x1) ∧ (¬x1∨x2) ∧ … forces all true.
	s := New()
	const n = 50
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	s.AddClause(PosLit(0))
	for i := 0; i < n-1; i++ {
		s.AddClause(NegLit(Var(i)), PosLit(Var(i+1)))
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	for i := 0; i < n; i++ {
		if !s.Value(Var(i)) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

// pigeonhole builds the classic unsatisfiable PHP(n+1, n) instance.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]Var, pigeons)
	for p := range vars {
		vars[p] = make([]Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		c := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = PosLit(vars[p][h])
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if st := s.Solve(); st != Sat {
		t.Fatalf("PHP(5,5): got %v, want SAT", st)
	}
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		nVars := 2 + rng.Intn(9)
		clauses := randomCNF(rng, nVars, 1+rng.Intn(30), 4)
		want := bruteForce(nVars, clauses)
		s := newSolverWith(nVars, clauses, Options{})
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver %v, brute force sat=%v\nclauses=%v", iter, got, want, clauses)
		}
		if got == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("iter %d: model does not satisfy formula", iter)
		}
	}
}

func TestRandomCNFAllOptionCombos(t *testing.T) {
	combos := []Options{
		{DisableLearning: true},
		aggressiveOpts(),
	}
	for ci, opts := range combos {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		for iter := 0; iter < 150; iter++ {
			nVars := 2 + rng.Intn(8)
			clauses := randomCNF(rng, nVars, 1+rng.Intn(25), 4)
			want := bruteForce(nVars, clauses)
			s := newSolverWith(nVars, clauses, opts)
			got := s.Solve()
			if (got == Sat) != want {
				t.Fatalf("opts %+v iter %d: solver %v, brute force sat=%v", opts, iter, got, want)
			}
			if got == Sat && !modelSatisfies(s.Model(), clauses) {
				t.Fatalf("opts %+v iter %d: bad model", opts, iter)
			}
		}
	}
}

func TestQuickModelsSatisfyFormula(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(10)
		clauses := randomCNF(rng, nVars, 3+rng.Intn(40), 5)
		s := newSolverWith(nVars, clauses, Options{})
		if s.Solve() == Sat {
			return modelSatisfies(s.Model(), clauses)
		}
		return !bruteForce(nVars, clauses)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if st := s.Solve(NegLit(a)); st != Sat {
		t.Fatalf("got %v", st)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model a=%v b=%v under assumption ¬a", s.Value(a), s.Value(b))
	}
	if st := s.Solve(NegLit(a), NegLit(b)); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	// Solver stays usable afterwards.
	if st := s.Solve(); st != Sat {
		t.Fatalf("after unsat-under-assumptions: got %v", st)
	}
}

func TestAssumptionCore(t *testing.T) {
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	// x → y. Assuming x and ¬y is contradictory; z is irrelevant.
	s.AddClause(NegLit(x), PosLit(y))
	st := s.Solve(PosLit(x), NegLit(y), PosLit(z))
	if st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	core := s.Core()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("core size %d, want 1..2: %v", len(core), core)
	}
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if inCore[PosLit(z)] {
		t.Fatalf("irrelevant assumption z in core: %v", core)
	}
	// The core itself must be unsatisfiable with the clauses.
	if st := s.Solve(core...); st != Unsat {
		t.Fatalf("core is not unsat: %v", core)
	}
}

func TestCoreIsUnsatQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(7)
		clauses := randomCNF(rng, nVars, 2+rng.Intn(20), 3)
		s := newSolverWith(nVars, clauses, Options{})
		if !s.Okay() {
			return true
		}
		// Random assumptions over distinct variables.
		var assumps []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				assumps = append(assumps, MkLit(Var(v), rng.Intn(2) == 0))
			}
		}
		if s.Solve(assumps...) != Unsat {
			return true
		}
		core := s.Core()
		// Core must be a subset of the assumptions…
		set := map[Lit]bool{}
		for _, a := range assumps {
			set[a] = true
		}
		for _, l := range core {
			if !set[l] {
				return false
			}
		}
		// …and re-solving under just the core must stay UNSAT.
		return s.Solve(core...) == Unsat
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(NegLit(a))
	if s.Solve() != Sat {
		t.Fatal("phase 2 should be SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatal("phase 2 model wrong")
	}
	s.AddClause(NegLit(b))
	if s.Solve() != Unsat {
		t.Fatal("phase 3 should be UNSAT")
	}
	if s.Solve() != Unsat {
		t.Fatal("UNSAT must be sticky once the empty clause is derived")
	}
}

func TestIncrementalNewVarsBetweenSolves(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
	b := s.NewVar()
	s.AddClause(NegLit(b))
	if s.Solve() != Sat {
		t.Fatal("should still be SAT")
	}
	if !s.Value(a) || s.Value(b) {
		t.Fatalf("model a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Propagations == 0 {
		t.Fatalf("expected nonzero work: %+v", s.Stats)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(1, int64(i+1)); got != w {
			t.Fatalf("luby(1,%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := luby(100, 3); got != 200 {
		t.Fatalf("luby(100,3) = %d, want 200", got)
	}
}

func TestVarHeapOrdering(t *testing.T) {
	act := []float64{1, 5, 3, 4, 2}
	h := newVarHeap(&act)
	for v := 0; v < 5; v++ {
		h.push(Var(v))
	}
	order := []Var{}
	for !h.empty() {
		order = append(order, h.pop())
	}
	want := []Var{1, 3, 2, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestVarHeapUpdate(t *testing.T) {
	act := []float64{1, 2, 3}
	h := newVarHeap(&act)
	h.push(0)
	h.push(1)
	h.push(2)
	act[0] = 10
	h.update(0)
	if got := h.pop(); got != 0 {
		t.Fatalf("after update, pop = %v, want 0", got)
	}
	if h.contains(0) {
		t.Fatal("popped var still reported in heap")
	}
}

func TestUnsatCoreEmptyWhenClausesAloneUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	s.AddClause(NegLit(v))
	if st := s.Solve(PosLit(v)); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if len(s.Core()) != 0 {
		t.Fatalf("core should be empty when clauses alone are unsat, got %v", s.Core())
	}
}

func TestManySolveCallsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	const n = 12
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	var clauses [][]Lit
	for round := 0; round < 60; round++ {
		c := make([]Lit, 1+rng.Intn(3))
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		if !s.AddClause(c...) {
			break
		}
		clauses = append(clauses, c)
		got := s.Solve()
		want := bruteForce(n, clauses)
		if (got == Sat) != want {
			t.Fatalf("round %d: got %v want sat=%v", round, got, want)
		}
		if got == Unsat {
			break
		}
	}
}

func BenchmarkSolvePigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("expected UNSAT")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clauses := randomCNF(rng, 60, 240, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSolverWith(60, clauses, Options{})
		s.Solve()
	}
}
