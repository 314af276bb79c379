package sat

import (
	"context"
	"time"
)

// StopReason explains why a Solve/SolveCtx call returned Unknown. It is
// reset at the start of every Solve call, so a value other than StopNone
// always refers to the most recent call.
type StopReason int

const (
	// StopNone: the last call completed (Sat or Unsat).
	StopNone StopReason = iota
	// StopCancelled: the context passed to SolveCtx was cancelled.
	StopCancelled
	// StopDeadline: the budget's wall-clock deadline passed.
	StopDeadline
	// StopConflicts: the conflict cap (Budget.MaxConflicts) was exhausted.
	StopConflicts
	// StopPropagations: the propagation cap was exhausted.
	StopPropagations
)

func (r StopReason) String() string {
	switch r {
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline exceeded"
	case StopConflicts:
		return "conflict budget exhausted"
	case StopPropagations:
		return "propagation budget exhausted"
	default:
		return "none"
	}
}

// Budget bounds the work of one SolveCtx call. The zero value is
// unlimited. Deadline is an absolute wall-clock cutoff; the two caps count
// work attributable to this call only (they are relative, so a Budget can
// be reused across calls on the same solver).
type Budget struct {
	// Deadline is the wall-clock cutoff; the zero time means none.
	Deadline time.Time
	// MaxConflicts, when positive, caps the conflicts of this call.
	MaxConflicts int64
	// MaxPropagations, when positive, caps the propagations of this call.
	MaxPropagations int64
}

// IsZero reports whether the budget imposes no limit at all.
func (b Budget) IsZero() bool {
	return b.Deadline.IsZero() && b.MaxConflicts <= 0 && b.MaxPropagations <= 0
}

// WithTimeout returns a copy of b whose deadline is now+d, unless b
// already carries an earlier deadline.
func (b Budget) WithTimeout(d time.Duration) Budget {
	dl := time.Now().Add(d)
	if b.Deadline.IsZero() || dl.Before(b.Deadline) {
		b.Deadline = dl
	}
	return b
}

// StopReason reports why the most recent Solve call returned Unknown
// (StopNone when it completed with Sat or Unsat).
func (s *Solver) StopReason() StopReason { return s.stopReason }

// SolveCtx is Solve under a cancellation context and a work budget. The
// search loop polls both: on cancellation, deadline expiry, or cap
// exhaustion it abandons the search and returns Unknown, with the cause
// available from StopReason. A context or deadline that is already
// expired at entry yields Unknown immediately (never a stale verdict),
// except when unsatisfiability was already established at level 0, which
// costs nothing to report.
func (s *Solver) SolveCtx(ctx context.Context, b Budget, assumps ...Lit) Status {
	s.ctx = ctx
	s.deadline = b.Deadline
	if b.MaxConflicts > 0 {
		s.conflictCap = s.Stats.Conflicts + b.MaxConflicts
	}
	if b.MaxPropagations > 0 {
		s.propCap = s.Stats.Propagations + b.MaxPropagations
	}
	defer func() {
		s.ctx = nil
		s.deadline = time.Time{}
		s.conflictCap, s.propCap = 0, 0
	}()
	return s.Solve(assumps...)
}

// stopCheck is polled by the search loop. Cap comparisons are plain
// integer tests and run every time; the context and the wall clock are
// only consulted every 64 polls to keep the hot loop cheap.
func (s *Solver) stopCheck() StopReason {
	if s.conflictCap > 0 && s.Stats.Conflicts >= s.conflictCap {
		return StopConflicts
	}
	if s.propCap > 0 && s.Stats.Propagations >= s.propCap {
		return StopPropagations
	}
	s.pollTick++
	if s.pollTick&63 != 0 {
		return StopNone
	}
	return s.stopNow()
}

// stopNow consults the expensive stop signals: the wall clock first (so a
// deadline-derived context cancellation still reports StopDeadline), then
// the context.
func (s *Solver) stopNow() StopReason {
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		return StopDeadline
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return StopCancelled
		default:
		}
	}
	return StopNone
}
