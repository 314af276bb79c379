package sat

// propagate performs unit propagation over all enqueued assignments.
// It returns the conflicting clause, or crefUndef if no conflict arose.
// The hot loop works directly on the arena: the watcher's blocker check
// avoids touching clause memory at all, and a visited clause is one
// contiguous block of int32s.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit clauses watching ¬p
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[falseLit]
		out := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			blocker := w.blocker()
			if s.value(blocker) == lTrue {
				out = append(out, w)
				continue
			}
			c := w.clause()
			if s.ca.deleted(c) {
				continue // purge lazily
			}
			lits := s.ca.lits(c)
			// Ensure the false literal is at position 1.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != blocker && s.value(first) == lTrue {
				out = append(out, mkWatcher(c, first))
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], mkWatcher(c, first))
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			out = append(out, w)
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers back and bail out.
				out = append(out, ws[i+1:]...)
				s.watches[falseLit] = out
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[falseLit] = out
	}
	return crefUndef
}
