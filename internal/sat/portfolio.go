package sat

import (
	"context"
	"fmt"
	"sync"
)

// CloneWithOptions builds a fresh solver over the same problem by replaying
// the clause database: every level-0 fact and every live problem clause is
// re-added to a new solver configured with opts. Learnt clauses are not
// copied — each clone rediscovers its own, which is exactly the
// diversification a portfolio wants. The clone shares no state with the
// receiver and is safe to drive from another goroutine.
func (s *Solver) CloneWithOptions(opts Options) *Solver {
	s.cancelUntil(0)
	ns := NewWithOptions(opts)
	for i := 0; i < s.NumVars(); i++ {
		ns.NewVar()
	}
	if s.unsatLevel0 {
		ns.unsatLevel0 = true
		return ns
	}
	// Level-0 trail first: units subsume the simplifications AddClause
	// applied when the originals were added.
	for _, l := range s.trail {
		if !ns.AddClause(l) {
			return ns
		}
	}
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			continue
		}
		if !ns.AddClause(s.ca.lits(c)...) {
			return ns
		}
	}
	// The clone starts from the receiver's already-simplified database:
	// carry the frozen marks so any later preprocessing in the clone
	// respects the same contract, and inherit the watermark so the clone
	// does not redo the receiver's work. Variables the receiver eliminated
	// simply do not occur in the replayed clauses; the receiver extends
	// the winner's model over them (see SolvePortfolio).
	if s.elim != nil && !opts.DisableSimp {
		for v := 0; v < s.NumVars(); v++ {
			if s.elim.Frozen(int32(v)) {
				ns.Freeze(Var(v))
			}
		}
	}
	if s.simpRan {
		ns.simpRan = true
		ns.simpWatermark = len(ns.clauses)
		ns.simpGrowth = 0
	}
	return ns
}

// PortfolioConfig names one diversified solver configuration in a portfolio.
type PortfolioConfig struct {
	Name string
	Opts Options
}

// DefaultPortfolio returns n diversified configurations. The first is
// always the default configuration, so a portfolio of size 1 behaves
// exactly like the sequential solver; the rest vary the restart schedule,
// the phase/decision seed, and the learnt-database cap.
func DefaultPortfolio(n int) []PortfolioConfig {
	base := []PortfolioConfig{
		{Name: "default", Opts: Options{}},
		{Name: "luby512-seed1", Opts: Options{RestartBase: 512, PhaseSeed: 0x9e3779b97f4a7c15}},
		{Name: "luby32-seed2", Opts: Options{RestartBase: 32, PhaseSeed: 0xd1b54a32d192ed03}},
		{Name: "lean-seed3", Opts: Options{LearntCap: 2000, PhaseSeed: 0x2545f4914f6cdd1d}},
		{Name: "nophase-seed4", Opts: Options{DisablePhaseSaving: true, PhaseSeed: 0x9e6c63d0876a9a47}},
	}
	if n <= 0 {
		n = 2
	}
	out := make([]PortfolioConfig, 0, n)
	for i := 0; i < n; i++ {
		c := base[i%len(base)]
		if i >= len(base) {
			// Further workers: same shapes, fresh deterministic seeds.
			c.Name = fmt.Sprintf("%s-r%d", c.Name, i/len(base))
			c.Opts.PhaseSeed = splitmix64(c.Opts.PhaseSeed + uint64(i))
			if c.Opts.PhaseSeed == 0 {
				c.Opts.PhaseSeed = 1
			}
		}
		out = append(out, c)
	}
	return out
}

// WorkerStats reports one portfolio worker's outcome for attribution.
type WorkerStats struct {
	Name   string
	Status Status
	Stop   StopReason
	Winner bool
	Stats  Stats
}

// PortfolioResult is the aggregate outcome of a SolvePortfolio call.
type PortfolioResult struct {
	Status Status
	// Winner indexes Workers; -1 when no worker reached a verdict.
	Winner  int
	Workers []WorkerStats
}

// SolvePortfolio races the given configurations over a replayed copy of the
// receiver's clause database, first definitive verdict wins. The losers are
// cancelled through the context machinery and the call does not return
// until every worker has stopped (no goroutine leaks). On Sat the winner's
// model is installed in the receiver, on Unsat the winner's failed
// assumptions, so Model/Value/Core behave exactly as after a sequential
// Solve. The verdict is necessarily the same as a sequential solve's: all
// workers decide the same clause set under the same assumptions.
//
// With nil configs a default 2-way portfolio is used; with exactly one
// config the receiver solves sequentially itself (no clone, no goroutine).
// The receiver's own clause database is never modified beyond the verdict
// installation, so further AddClause/Solve calls continue as usual.
func (s *Solver) SolvePortfolio(ctx context.Context, b Budget, configs []PortfolioConfig, assumps ...Lit) PortfolioResult {
	if len(configs) == 0 {
		configs = DefaultPortfolio(2)
	}
	if len(configs) == 1 {
		st := s.SolveCtx(ctx, b, assumps...)
		w := WorkerStats{Name: configs[0].Name, Status: st, Stop: s.stopReason, Winner: st != Unknown, Stats: s.Stats}
		winner := -1
		if st != Unknown {
			winner = 0
		}
		return PortfolioResult{Status: st, Winner: winner, Workers: []WorkerStats{w}}
	}

	s.stopReason = StopNone
	if s.unsatLevel0 {
		s.conflict = s.conflict[:0]
		ws := make([]WorkerStats, len(configs))
		for i, c := range configs {
			ws[i] = WorkerStats{Name: c.Name, Status: Unsat, Winner: i == 0}
		}
		return PortfolioResult{Status: Unsat, Winner: 0, Workers: ws}
	}

	clones := make([]*Solver, len(configs))
	for i, c := range configs {
		clones[i] = s.CloneWithOptions(c.Opts)
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type verdict struct {
		i  int
		st Status
	}
	ch := make(chan verdict, len(clones))
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch <- verdict{i, clones[i].SolveCtx(raceCtx, b, assumps...)}
		}(i)
	}

	winner, status := -1, Unknown
	for range clones {
		v := <-ch
		if v.st != Unknown && winner < 0 {
			winner, status = v.i, v.st
			cancel() // first finisher wins; stop the losers
		}
	}
	wg.Wait()

	workers := make([]WorkerStats, len(clones))
	for i, c := range clones {
		workers[i] = WorkerStats{
			Name:   configs[i].Name,
			Status: Unknown,
			Stop:   c.stopReason,
			Winner: i == winner,
			Stats:  c.Stats,
		}
	}
	if winner >= 0 {
		w := clones[winner]
		workers[winner].Status = status
		switch status {
		case Sat:
			s.model = w.Model()
			s.extendModel()
		case Unsat:
			s.conflict = append(s.conflict[:0], w.conflict...)
			if w.unsatLevel0 {
				// The clause set alone is unsatisfiable; that fact is
				// assumption-independent and sound to keep.
				s.unsatLevel0 = true
			}
		}
		s.stopReason = StopNone
	} else {
		// All workers gave up. Report the cause the caller can act on:
		// parent cancellation or deadline first, else the first worker's.
		s.stopReason = workers[0].Stop
		if ctx.Err() != nil {
			s.stopReason = StopCancelled
		}
	}
	return PortfolioResult{Status: status, Winner: winner, Workers: workers}
}
