package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/goals"
	"muppet/internal/server"
)

// revise-watch drives the write path: a seeded stream of one-row goal
// edits, each followed by a reload and the matching watch event, beside
// closed-loop reads of the tenants being swapped.

// reviseTenants is the tenant directory: four sparse bundles of 5–8
// services with two ban rows each. More than one tenant keeps a run's
// figures from hanging on one generated bundle. The K8s side offers its
// configuration fixed, so each revision has selector-guarded config
// groups for the delta path to keep or re-assert.
func reviseTenants(seed int64) [][]*Input {
	rng := rand.New(rand.NewSource(seed))
	var out [][]*Input
	for i, n := range []int{5, 6, 7, 8} {
		base := newInput(fmt.Sprintf("rev%d", i), shape{Services: n, Ports: 2, FlowsPerService: 1, Bans: 2}, rng.Int63(), false)
		out = append(out, reviseStates(base.withK8sOffer("fixed")))
	}
	return out
}

// reviseStates is one tenant's goal-revision state space: each K8s ban
// row either bans its port or (flipped) allows it. A state is a bitmask
// of flipped rows.
func reviseStates(base *Input) []*Input {
	n := len(base.K8sGoals)
	out := make([]*Input, 1<<n)
	for s := range out {
		gs := append([]goals.K8sGoal(nil), base.K8sGoals...)
		for i := range gs {
			gs[i].Allow = s&(1<<i) != 0
		}
		out[s] = base.withK8sGoals(gs)
	}
	return out
}

// editStream is the seeded sequence of one-row edits: each step flips one
// ban row of one tenant, so every revision changes that tenant's files.
type editStream struct {
	rng    *rand.Rand
	states []int // current state per tenant
	rows   []int // ban rows per tenant
}

func newEditStream(seed int64, tenants [][]*Input) *editStream {
	e := &editStream{rng: rand.New(rand.NewSource(seed)), states: make([]int, len(tenants))}
	for _, t := range tenants {
		e.rows = append(e.rows, len(t[0].K8sGoals))
	}
	return e
}

func (e *editStream) next() (tenant, state int) {
	t := e.rng.Intn(len(e.states))
	e.states[t] ^= 1 << e.rng.Intn(e.rows[t])
	return t, e.states[t]
}

// refKey names the reference of tenant t in state s for op.
func refKey(t, s int, op string) string { return fmt.Sprintf("%d/%d/%s", t, s, op) }

// countRevisions is how many edits of the seeded stream the traced run
// replays for its delta counts.
const countRevisions = 16

var readOps = []string{"reconcile", "check"}

func runReviseWatch(o Options) (*Result, error) {
	ctx := context.Background()
	res := &Result{Correct: true}
	tenants := reviseTenants(o.Seed)
	ids := make([]string, len(tenants))
	for t := range tenants {
		ids[t] = tenants[t][0].Name
	}

	// References for every tenant, state and read op, checked by the
	// oracle.
	var qs []*query
	for t, states := range tenants {
		for s, in := range states {
			dir := filepath.Join(o.Work, "ref", fmt.Sprint(t), fmt.Sprint(s))
			if err := in.Write(dir); err != nil {
				return nil, err
			}
			for _, op := range readOps {
				qs = append(qs, &query{in: in, dir: dir, req: server.Request{Op: op}, key: refKey(t, s, op)})
			}
		}
	}
	t0 := time.Now()
	refs, err := references(res, qs, func(q *query) (server.Response, error) { return cliQuery(ctx, q) })
	if err != nil {
		return nil, err
	}
	oracle := time.Since(t0)
	ref := func(t, s int, op string) server.Response { return refs[refKey(t, s, op)] }

	var counts Counts
	if o.Trace {
		if counts, err = deltaCounts(o, tenants, ref); err != nil {
			return nil, err
		}
	}

	// Set-up: write the tenants, start the daemon, prime the read ops, and
	// subscribe to each tenant's reconcile events (the baseline event is
	// the first).
	var d *daemon
	var streams []*watchStream
	dir := filepath.Join(o.Work, "setup")
	stop := func() {
		for _, ws := range streams {
			ws.close()
		}
		d.stop()
	}
	setup, reps, err := repeatSetup(func() (func(), error) {
		for t, states := range tenants {
			if err := states[0].Write(filepath.Join(dir, ids[t])); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = startDaemon(dir, ids); err != nil {
			return nil, err
		}
		streams = nil
		if err := d.prime(ids, readOps, func(id, op string) server.Response {
			for t := range ids {
				if ids[t] == id {
					return ref(t, 0, op)
				}
			}
			return server.Response{}
		}); err != nil {
			stop()
			return nil, err
		}
		for t, id := range ids {
			ws, err := d.watch(id, "reconcile")
			if err != nil {
				stop()
				return nil, err
			}
			streams = append(streams, ws)
			want := ref(t, 0, "reconcile")
			if ev, err := ws.next(); err != nil || ev.Code != want.Code || ev.Output != want.Output {
				stop()
				return nil, fmt.Errorf("baseline watch event of %s differs from its reference (%v)", id, err)
			}
		}
		return stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	res.note("set-up %.4f s (median of %d); oracle checked %d references in %.3f s",
		setup, reps, len(refs), oracle.Seconds())

	// hist[t][k] is tenant t's state at revision k+1; the writer appends
	// before it asks for the reload, so every revision a read can see is
	// listed.
	var mu sync.Mutex
	hist := make([][]int, len(ids))
	for t := range hist {
		hist[t] = []int{0}
	}
	edits := newEditStream(o.Seed, tenants)
	var replays []*reviseReplay
	var seq atomic.Int64
	readsOK, revsOK := 0, 0 // verified reads and revisions, guarded by mu

	// phase runs the writer and the reader until the deadline.
	phase := func(rec *Recorder, deadline time.Time) (reads, events, lags *latencies) {
		reads, events, lags = &latencies{}, &latencies{}, &latencies{}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // writer: one edit, one reload, wait for its event
			defer wg.Done()
			for time.Now().Before(deadline) {
				t, s := edits.next()
				tdir := filepath.Join(dir, ids[t])
				err := os.WriteFile(filepath.Join(tdir, fileK8sGoals), tenants[t][s].Files[fileK8sGoals], 0o644)
				mu.Lock()
				hist[t] = append(hist[t], s)
				mu.Unlock()
				req := seq.Add(1)
				start := time.Now()
				var rep server.ReloadReply
				if err == nil {
					rec.Do(req, -1, "tenant.reload", func() { rep, err = d.reload(ids[t]) })
				}
				replied := time.Now()
				var ev *server.WatchEvent
				for err == nil {
					if ev, err = streams[t].next(); err != nil || ev.Revision >= rep.Revision {
						break
					}
				}
				event, lag := time.Since(start), time.Since(replied)
				want := ref(t, s, "reconcile")
				ok := err == nil && ev.Revision == rep.Revision && ev.Code == want.Code && ev.Output == want.Output
				if ok {
					events.add(event)
					lags.add(lag)
				}
				if ok && rec != nil {
					ok = replays[t].revision(rec, req, tenants[t][s].Config(tdir), ev.Output)
				}
				mu.Lock()
				res.Attempted++
				if ok {
					revsOK++
				} else {
					res.fail(err, "revision %d of %s", rep.Revision, ids[t])
				}
				mu.Unlock()
			}
		}()
		go func() { // reader: closed-loop reads of the tenants being swapped
			defer wg.Done()
			order := rand.New(rand.NewSource(o.Seed*7919 + 1)).Perm(len(ids) * len(readOps))
			for i := 0; time.Now().Before(deadline); i++ {
				p := order[i%len(order)]
				t, op := p/len(readOps), readOps[p%len(readOps)]
				mu.Lock()
				lo := max(0, len(hist[t])-2)
				mu.Unlock()
				req := seq.Add(1)
				start := time.Now()
				h := rec.Begin(req, -1, "http.roundtrip")
				resp, err := d.post(ctx, ids[t], op)
				rec.End(h)
				d := time.Since(start)
				mu.Lock()
				ok := false
				for _, s := range hist[t][lo:] {
					ok = ok || (err == nil && resp == ref(t, s, op))
				}
				res.Attempted++
				if ok {
					readsOK++
					reads.add(d)
				} else {
					res.fail(err, "read %s/%s", ids[t], op)
				}
				mu.Unlock()
			}
		}()
		wg.Wait()
		return reads, events, lags
	}

	runtime.GC()
	debug.FreeOSMemory()
	if !o.Trace {
		rss := startRSS()
		start := time.Now()
		reads, events, lags := phase(nil, start.Add(o.Seconds))
		elapsed := time.Since(start)
		peak := rss.Stop()
		ev := events.values()
		res.set("setup_s", setup, "s")
		// Verified revisions count beside verified reads, so a slower write
		// path (a rebase falling back to cold, a slower watch hub) lowers
		// the gated throughput, not only the report lines below.
		res.set("queries_per_s", float64(readsOK+revsOK)/elapsed.Seconds(), "1/s")
		endToEnd(res, reads.values())
		res.set("peak_rss_mb", peak, "MB")
		res.note("event latency over %d revisions: p50 %.3f ms, p90 %.3f ms; watch lag p50 %.3f ms; %.3f revisions/s, %.3f reads/s",
			len(ev), quantile(ev, 0.5), quantile(ev, 0.9), quantile(lags.values(), 0.5),
			float64(revsOK)/elapsed.Seconds(), float64(readsOK)/elapsed.Seconds())
		return res, nil
	}

	var tr traceData
	g0 := readGo()
	reads, events, _ := phase(nil, time.Now().Add(o.Seconds/2))
	tr.goDelta(g0, readGo(), len(reads.values())+len(events.values()))
	tr.untracedMean = meanOf(events.values())
	for t := range ids {
		mu.Lock()
		s := hist[t][len(hist[t])-1]
		mu.Unlock()
		rp, err := newReviseReplay(tenants[t][s].Config(filepath.Join(dir, ids[t])))
		if err != nil {
			return nil, err
		}
		replays = append(replays, rp)
	}
	rec := NewRecorder()
	_, events, lags := phase(rec, time.Now().Add(o.Seconds/2))
	tr.tracedMean = meanOf(events.values())
	tr.watchLagMs = quantile(lags.values(), 0.5)
	tr.spans = rec.Spans()
	tr.counts = counts
	tr.evictions = d.reg.Ledger().Evictions()
	tr.reuse = sumReuse(d)
	tr.emit(res)
	return res, nil
}

// reviseReplay mirrors the watch hub on the exported path: load the new
// revision, snapshot it, diff against the previous snapshot, re-anchor
// on the old system when compatible, and serve through SolveCache.Rebase.
type reviseReplay struct {
	base  *server.State
	prev  *muppet.DeltaRevision
	cache *muppet.SolveCache
	last  muppet.DeltaStats // the most recent revision's delta
}

func newReviseReplay(cfg server.Config) (*reviseReplay, error) {
	st, err := server.Load(cfg)
	if err != nil {
		return nil, err
	}
	snap, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	rp := &reviseReplay{base: st, prev: snap, cache: muppet.NewSolveCache()}
	var execErr error
	rp.cache.Rebase(nil, func() {
		_, execErr = server.Exec(context.Background(), st, rp.cache, server.Request{Op: "reconcile"}, muppet.Budget{})
	})
	return rp, execErr
}

// revision replays one revision with spans under a "replay" root and
// reports whether it served the event's bytes.
func (rp *reviseReplay) revision(rec *Recorder, req int64, cfg server.Config, want string) bool {
	r := &replay{rec: rec, req: req, ctx: context.Background()}
	r.root = rec.Begin(req, -1, "replay")
	defer rec.End(r.root)
	st, _, err := r.load(cfg)
	if err != nil {
		return false
	}
	var snap *muppet.DeltaRevision
	r.do("delta.snapshot", func() { snap, err = st.Snapshot() })
	if err != nil {
		return false
	}
	var plan *muppet.DeltaPlan
	r.do("delta.compare", func() { plan = muppet.CompareRevisions(rp.prev, snap) })
	serve := st
	if plan.Compatible {
		if rb, err := st.RebasedOn(rp.base.Sys); err == nil {
			serve = rb
		}
	}
	if serve == st {
		rp.base, rp.cache = st, muppet.NewSolveCache()
	}
	rp.prev = snap
	var resp server.Response
	h := rec.Begin(req, r.root, "muppet.rebase")
	rp.last = rp.cache.Rebase(plan, func() {
		rec.Do(req, h, "server.exec", func() {
			resp, err = server.Exec(context.Background(), serve, rp.cache, server.Request{Op: "reconcile"}, muppet.Budget{})
		})
	})
	rec.End(h)
	return err == nil && resp.Output == want
}

// deltaCounts replays the first edits of the seeded stream, with no
// daemon and no timing, for counts that repeat exactly per seed.
func deltaCounts(o Options, tenants [][]*Input, ref func(t, s int, op string) server.Response) (Counts, error) {
	var c Counts
	var replays []*reviseReplay
	for t, states := range tenants {
		dir := filepath.Join(o.Work, "counts", fmt.Sprint(t))
		if err := states[0].Write(dir); err != nil {
			return c, err
		}
		rp, err := newReviseReplay(states[0].Config(dir))
		if err != nil {
			return c, err
		}
		replays = append(replays, rp)
	}
	edits := newEditStream(o.Seed, tenants)
	for i := 0; i < countRevisions; i++ {
		t, s := edits.next()
		dir := filepath.Join(o.Work, "counts", fmt.Sprint(t))
		if err := tenants[t][s].Write(dir); err != nil {
			return c, err
		}
		rp := replays[t]
		if !rp.revision(nil, 0, tenants[t][s].Config(dir), ref(t, s, "reconcile").Output) {
			return c, fmt.Errorf("count replay of edit %d differs from its reference", i+1)
		}
		enc := rp.cache.Stats().Encoding
		warm := int64(1)
		if rp.last.Cold {
			warm = 0
		}
		c.add(Counts{N: 1, GroupsKept: rp.last.GroupsKept, GroupsReasserted: rp.last.GroupsReasserted,
			Restored: rp.last.Restored, Warm: warm, Nodes: enc.CircuitNodes, Vars: enc.SolverVars,
			Clauses: enc.SolverClauses, Eliminated: enc.VarsEliminated, Removed: enc.ClausesRemoved})
	}
	return c, nil
}
