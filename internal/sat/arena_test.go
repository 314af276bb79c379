package sat

import (
	"math/rand"
	"testing"
)

// aggressiveOpts makes every hot path of the arena core fire on tiny
// problems: restarts every conflict, inprocessing on every tick, a learnt
// cap small enough to force frequent reduceDB passes, and no preprocessing
// floor so BVE runs even on a handful of clauses.
func aggressiveOpts() Options {
	return Options{
		restartBase:       1,
		inprocessInterval: 1,
		learntCap:         5,
		SimpMinClauses:    -1,
	}
}

// TestAggressiveStressReachesEveryPath pins what aggressiveOpts buys
// FuzzDifferentialCDCL: on PHP(7,6) every search-core path it claims to
// stress — restarts, inprocessing ticks, in-search preprocessing, reduceDB
// deletions, vivification, and arena compaction — actually runs. A change
// that quietly weakened one of the stress settings would fail here rather
// than leave the fuzz target covering less.
func TestAggressiveStressReachesEveryPath(t *testing.T) {
	s := NewWithOptions(aggressiveOpts())
	pigeonhole(s, 7, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6): got %v, want UNSAT", st)
	}
	st := s.Stats
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"Restarts", st.Restarts},
		{"InprocessRuns", st.InprocessRuns},
		{"SimpRuns", st.SimpRuns},
		{"Removed", st.Removed},
		{"Vivified", st.Vivified},
		{"ArenaGCs", st.ArenaGCs},
	} {
		if c.n <= 0 {
			t.Errorf("%s = %d under aggressiveOpts, want > 0 (stats %+v)", c.name, c.n, st)
		}
	}
}

// decodeCNF turns fuzz bytes into a CNF: the first byte picks the variable
// count, then each zero byte terminates a clause and any other byte b
// contributes the literal with variable (b-1)%nVars and sign ((b-1)/nVars)%2.
func decodeCNF(data []byte) (int, [][]Lit) {
	if len(data) < 2 {
		return 0, nil
	}
	nVars := 3 + int(data[0])%8
	var clauses [][]Lit
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0 {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
			}
			continue
		}
		v := Var(int(b-1) % nVars)
		neg := (int(b-1)/nVars)%2 == 1
		cur = append(cur, MkLit(v, neg))
		if len(clauses) >= 64 {
			break
		}
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return nVars, clauses
}

// FuzzDifferentialCDCL cross-checks the full arena CDCL core — learning,
// chronological backtracking, reduceDB with arena GC, scheduled
// inprocessing — against the chronological-backtracking DPLL reference
// (DisableLearning), which shares only the propagation engine. Verdicts
// must agree, and every SAT model must actually satisfy the input.
//
// A second, incremental phase drives the preprocessing re-run trigger:
// the last byte freezes a subset of the variables (bit v mod 8), the
// first half of the clauses is solved, then the second half is added —
// repeated to twice the re-run watermark, so a second pass fires when at
// least about half its clauses name an unfrozen variable — and solved
// again against a reference built on the union.
func FuzzDifferentialCDCL(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0})
	f.Add([]byte{5, 1, 0, 9, 0, 1, 9, 0, 2, 10, 0, 2, 0})
	f.Add([]byte{7, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 10, 11, 12, 0})
	f.Add([]byte{3, 1, 0, 4, 0, 2, 0, 5, 0, 3, 0, 6, 0})
	// 4 variables, {0,1} frozen. In the first seed the second half is
	// frozen-only (bar a unit), so no second pass runs; in the other,
	// three of its four clauses name 2 or 3, and the second pass fires.
	f.Add([]byte{1, 1, 3, 0, 2, 4, 0, 3, 6, 0, 1, 2, 0, 1, 6, 0, 2, 5, 0, 3})
	f.Add([]byte{1, 1, 3, 0, 2, 4, 0, 3, 6, 0, 1, 2, 0, 5, 4, 0, 2, 5, 0, 7, 4, 0, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, clauses := decodeCNF(data)
		if nVars == 0 {
			return
		}
		full := newSolverWith(nVars, clauses, aggressiveOpts())
		ref := newSolverWith(nVars, clauses, Options{DisableLearning: true})
		got, want := full.Solve(), ref.Solve()
		if got != want {
			t.Fatalf("verdict mismatch: arena CDCL %v, DPLL reference %v (nVars=%d clauses=%v)",
				got, want, nVars, clauses)
		}
		if got == Sat && !modelSatisfies(full.Model(), clauses) {
			t.Fatalf("arena CDCL model does not satisfy the input (nVars=%d clauses=%v)", nVars, clauses)
		}

		mask := data[len(data)-1]
		first, second := clauses[:len(clauses)/2], clauses[len(clauses)/2:]
		inc := NewWithOptions(aggressiveOpts())
		for v := 0; v < nVars; v++ {
			inc.NewVar()
			if mask>>(v%8)&1 == 1 {
				inc.Freeze(Var(v))
			}
		}
		for _, c := range first {
			inc.AddClause(c...)
		}
		got = inc.Solve()
		want = newSolverWith(nVars, first, Options{DisableLearning: true}).Solve()
		if got != want {
			t.Fatalf("phase 1 verdict mismatch: arena CDCL %v, DPLL reference %v (nVars=%d frozen=%08b clauses=%v)",
				got, want, nVars, mask, first)
		}
		if len(second) == 0 {
			return
		}
		for added := 0; added <= 2*simpMinGrowth(0); {
			for _, c := range second {
				inc.AddClause(c...)
				added++
			}
		}
		got = inc.Solve()
		want = ref.Solve()
		if got != want {
			t.Fatalf("phase 2 verdict mismatch: arena CDCL %v, DPLL reference %v (nVars=%d frozen=%08b first=%v second=%v)",
				got, want, nVars, mask, first, second)
		}
		if got == Sat && !modelSatisfies(inc.Model(), clauses) {
			t.Fatalf("phase 2 model does not satisfy the union (nVars=%d frozen=%08b first=%v second=%v)",
				nVars, mask, first, second)
		}
	})
}

// TestArenaGCRemapsEverything exercises garbageCollect directly: problem
// clauses must keep their literals, the watch lists must be remapped to
// the relocated crefs, and dead arena segments must be reclaimed.
func TestArenaGCRemapsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars = 12
	clauses := randomCNF(rng, nVars, 30, 4)
	s := newSolverWith(nVars, clauses, Options{DisableSimp: true})
	if !s.Okay() {
		t.Skip("instance trivially unsat at level 0")
	}
	s.flushWatches() // AddClause defers attachment; this test inspects watches

	// Interleave garbage between live clauses: orphan learnts that are
	// allocated and immediately deleted, so the arena has holes to squeeze.
	for i := 0; i < 20; i++ {
		c := s.ca.alloc([]Lit{PosLit(Var(i % nVars)), NegLit(Var((i + 1) % nVars)), PosLit(Var((i + 2) % nVars))}, true)
		s.ca.delete(c)
	}
	wasted := s.ca.wasted
	if wasted == 0 {
		t.Fatal("setup made no garbage")
	}

	before := make([][]Lit, len(s.clauses))
	for i, c := range s.clauses {
		before[i] = append([]Lit(nil), s.ca.lits(c)...)
	}
	oldLen := len(s.ca.data)

	s.garbageCollect()

	if s.Stats.ArenaGCs != 1 {
		t.Fatalf("ArenaGCs = %d, want 1", s.Stats.ArenaGCs)
	}
	if got := len(s.ca.data); got != oldLen-wasted {
		t.Fatalf("arena still %d words after GC, want %d", got, oldLen-wasted)
	}
	if s.ca.wasted != 0 {
		t.Fatalf("wasted = %d after GC, want 0", s.ca.wasted)
	}
	if len(s.clauses) != len(before) {
		t.Fatalf("GC changed the clause count: %d -> %d", len(before), len(s.clauses))
	}
	for i, c := range s.clauses {
		if s.ca.deleted(c) {
			t.Fatalf("clause %d deleted by GC", i)
		}
		got := s.ca.lits(c)
		if len(got) != len(before[i]) {
			t.Fatalf("clause %d resized: %v -> %v", i, before[i], got)
		}
		for j := range got {
			if got[j] != before[i][j] {
				t.Fatalf("clause %d literals changed: %v -> %v", i, before[i], got)
			}
		}
	}
	// Every attached clause must be watched on its first two literals.
	for i, c := range s.clauses {
		lits := s.ca.lits(c)
		for _, w := range lits[:2] {
			found := false
			for _, ww := range s.watches[w] {
				if ww.clause() == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("clause %d (%v) lost its watcher on %v after GC", i, lits, w)
			}
		}
	}
	// And no watcher may point at a stale or deleted cref.
	for idx := range s.watches {
		for _, w := range s.watches[idx] {
			if w.clause() < 0 || int(w.clause()) >= len(s.ca.data) || s.ca.deleted(w.clause()) {
				t.Fatalf("stale watcher cref %d survived GC", w.clause())
			}
		}
	}

	if got, want := s.Solve(), bruteForce(nVars, clauses); (got == Sat) != want {
		t.Fatalf("post-GC verdict %v disagrees with brute force %v", got, want)
	}
}

// TestReduceDBCompactsArena drives a real search with a tiny learnt cap so
// reduceDB runs repeatedly, and checks the verdict stays correct while the
// arena is reclaimed underneath the search.
func TestReduceDBCompactsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		nVars := 8 + rng.Intn(6)
		clauses := randomCNF(rng, nVars, 4*nVars, 3)
		s := newSolverWith(nVars, clauses, aggressiveOpts())
		got := s.Solve()
		want := bruteForce(nVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("round %d: verdict %v, brute force %v", round, got, want)
		}
		if got == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("round %d: model does not satisfy input", round)
		}
	}
}

// TestInprocessingWithAssumptions solves the same instance repeatedly
// under different assumption sets on one warm solver, with inprocessing on
// every tick — vivification and in-search BVE must respect frozen
// assumption variables and keep incremental verdicts exact.
func TestInprocessingWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 15; round++ {
		nVars := 8 + rng.Intn(4)
		clauses := randomCNF(rng, nVars, 4*nVars, 3)
		s := newSolverWith(nVars, clauses, aggressiveOpts())
		for call := 0; call < 8; call++ {
			a1 := MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			a2 := MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
			got := s.Solve(a1, a2)
			want := bruteForce(nVars, append([][]Lit{{a1}, {a2}}, clauses...))
			if (got == Sat) != want {
				t.Fatalf("round %d call %d: verdict %v under %v,%v; brute force %v",
					round, call, got, a1, a2, want)
			}
			if got == Sat {
				m := s.Model()
				if !modelSatisfies(m, clauses) || m[a1.Var()] == a1.Neg() || m[a2.Var()] == a2.Neg() {
					t.Fatalf("round %d call %d: model violates clauses or assumptions %v,%v",
						round, call, a1, a2)
				}
			}
			if !s.Okay() {
				break // level-0 unsat: the solver is exhausted for good
			}
		}
	}
}
