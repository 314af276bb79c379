package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/server"
	"muppet/internal/tenant"
)

// serveTenants: the Fig. 1 walkthrough plus six sparse bundles of 6–8
// services, every one served warm for all five ops.
func serveTenants(seed int64) []*Input {
	rng := rand.New(rand.NewSource(seed))
	ins := []*Input{fig1Input()}
	for i, n := range sizes(6, 8, 6) {
		ins = append(ins, newInput(fmt.Sprintf("t%d", i), shape{Services: n, Ports: 2, FlowsPerService: 1, Bans: 2}, rng.Int63(), false))
	}
	return ins
}

// tenantQueries lists one query per (tenant, op) on the tenants in dir.
func tenantQueries(dir string, ins []*Input, ops []string) []*query {
	var qs []*query
	for _, in := range ins {
		for _, op := range ops {
			qs = append(qs, &query{in: in, dir: filepath.Join(dir, in.Name), req: server.Request{Op: op}, key: in.Name + "/" + op})
		}
	}
	return qs
}

func names(ins []*Input) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Name
	}
	return out
}

// warmPools gives each tenant a pool outside the daemon, with two caches
// primed for every op: the traced run replays served requests on them
// through tenant.CachePool and server.Exec.
func warmPools(d *daemon, ids, ops []string) (map[string]*tenant.CachePool, error) {
	ledger := tenant.NewLedger(0)
	pools := map[string]*tenant.CachePool{}
	for _, id := range ids {
		pools[id] = ledger.NewPool(id)
		ent, _ := d.reg.Get(id)
		var cs []*muppet.SolveCache
		for w := 0; w < clients; w++ {
			c := pools[id].Checkout()
			cs = append(cs, c)
			for _, op := range ops {
				if _, err := server.Exec(context.Background(), ent.State, c, server.Request{Op: op}, muppet.Budget{}); err != nil {
					return nil, err
				}
			}
		}
		for _, c := range cs {
			pools[id].Checkin(c)
		}
	}
	return pools, nil
}

func sumReuse(d *daemon) muppet.ReuseStats {
	var s muppet.ReuseStats
	for _, ent := range d.reg.Entries() {
		s.Add(ent.Pool.Stats().Reuse)
	}
	return s
}

func reuseDelta(a, b muppet.ReuseStats) muppet.ReuseStats {
	return muppet.ReuseStats{
		Sessions: b.Sessions - a.Sessions,
		Reuses:   b.Reuses - a.Reuses,
		Translation: muppet.TranslationStats{
			PointerHits: b.Translation.PointerHits - a.Translation.PointerHits,
			StructHits:  b.Translation.StructHits - a.Translation.StructHits,
			Misses:      b.Translation.Misses - a.Translation.Misses,
		},
	}
}

func runServeWarm(o Options) (*Result, error) {
	ctx := context.Background()
	res := &Result{Correct: true}
	ins := serveTenants(o.Seed)
	ids := names(ins)
	ops := server.Ops()

	// References: the cold CLI path, checked by the oracle.
	refDir := filepath.Join(o.Work, "ref")
	if err := writeInputs(refDir, ins); err != nil {
		return nil, err
	}
	t0 := time.Now()
	refs, err := references(res, tenantQueries(refDir, ins, ops), func(q *query) (server.Response, error) { return cliQuery(ctx, q) })
	if err != nil {
		return nil, err
	}
	oracle := time.Since(t0)
	want := func(id, op string) server.Response { return refs[id+"/"+op] }

	// Set-up: write the tenant directories, load them into a registry,
	// start the daemon, prime every (tenant, op) on both workers' caches.
	var d *daemon
	dir := filepath.Join(o.Work, "setup")
	setup, reps, err := repeatSetup(func() (func(), error) {
		if err := writeInputs(dir, ins); err != nil {
			return nil, err
		}
		var err error
		if d, err = startDaemon(dir, ids); err != nil {
			return nil, err
		}
		if err := d.prime(ids, ops, want); err != nil {
			d.stop()
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	for _, id := range ids {
		for _, op := range ops {
			resp, err := d.post(ctx, id, op)
			if err != nil || resp != want(id, op) {
				return nil, fmt.Errorf("daemon %s/%s differs from its reference (%v)", id, op, err)
			}
		}
	}
	res.note("set-up %.4f s (median of %d); oracle checked %d references in %.3f s",
		setup, reps, len(refs), oracle.Seconds())

	var pools map[string]*tenant.CachePool
	if o.Trace {
		if pools, err = warmPools(d, ids, ops); err != nil {
			return nil, err
		}
	}

	var rejections atomic.Int64
	var seq atomic.Int64
	// load runs both closed-loop clients until the deadline, recording
	// spans and replays when rec is set.
	load := func(rec *Recorder, deadline time.Time) *latencies {
		lat := &latencies{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Each client cycles through its own seeded order of every
				// (tenant, op) pair, so each run serves the same mix.
				order := rand.New(rand.NewSource(o.Seed*7919 + int64(c))).Perm(len(ids) * len(ops))
				for i := 0; time.Now().Before(deadline); i++ {
					p := order[i%len(order)]
					id, op := ids[p/len(ops)], ops[p%len(ops)]
					req := seq.Add(1)
					t := time.Now()
					h := rec.Begin(req, -1, "http.roundtrip")
					resp, err := d.post(ctx, id, op)
					rec.End(h)
					took := time.Since(t)
					ok := err == nil && resp == want(id, op)
					if ok {
						lat.add(took)
					}
					if rec != nil && ok {
						ok = replayServed(rec, req, d, pools[id], id, op, want(id, op))
					}
					mu.Lock()
					res.Attempted++
					if !ok {
						if errors.Is(err, errRejected) {
							rejections.Add(1)
						}
						res.fail(err, "%s/%s", id, op)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return lat
	}

	runtime.GC()
	debug.FreeOSMemory()
	if !o.Trace {
		rss := startRSS()
		start := time.Now()
		lat := load(nil, start.Add(o.Seconds))
		elapsed := time.Since(start)
		peak := rss.Stop()
		res.set("setup_s", setup, "s")
		res.set("queries_per_s", float64(res.Attempted-res.Failed)/elapsed.Seconds(), "1/s")
		endToEnd(res, lat.values())
		res.set("peak_rss_mb", peak, "MB")
		return res, nil
	}

	var tr traceData
	g0 := readGo()
	lat := load(nil, time.Now().Add(o.Seconds/2)).values()
	tr.goDelta(g0, readGo(), len(lat))
	tr.untracedMean = meanOf(lat)
	r0 := sumReuse(d)
	rec := NewRecorder()
	tr.tracedMean = meanOf(load(rec, time.Now().Add(o.Seconds/2)).values())
	tr.spans = rec.Spans()
	tr.reuse = reuseDelta(r0, sumReuse(d))
	tr.rejections = rejections.Load()
	tr.evictions = d.reg.Ledger().Evictions()
	states := map[string]*server.State{}
	for _, id := range ids {
		ent, _ := d.reg.Get(id)
		states[id] = ent.State
	}
	if tr.counts, err = servedCounts(ctx, ids, ops, states, want); err != nil {
		return nil, err
	}
	tr.emit(res)
	return res, nil
}

// servedCounts serves every (tenant, op) cold then warm on a fresh pool,
// in a fixed order, and sums the sizes of the sessions left warm.
func servedCounts(ctx context.Context, ids, ops []string, states map[string]*server.State, want func(id, op string) server.Response) (Counts, error) {
	var c Counts
	for _, id := range ids {
		pool := tenant.NewLedger(0).NewPool(id)
		sc := pool.Checkout()
		for _, op := range ops {
			for i := 0; i < 2; i++ {
				if resp, err := server.Exec(ctx, states[id], sc, server.Request{Op: op}, muppet.Budget{}); err != nil || resp != want(id, op) {
					return c, fmt.Errorf("count pass %s/%s differs from its reference (%v)", id, op, err)
				}
			}
		}
		pool.Checkin(sc)
		enc := pool.Stats().Reuse.Encoding
		c.add(Counts{N: int64(len(ops)), Nodes: enc.CircuitNodes, Vars: enc.SolverVars,
			Clauses: enc.SolverClauses, Eliminated: enc.VarsEliminated, Removed: enc.ClausesRemoved})
	}
	return c, nil
}

// replayServed replays one served request through the tenant pool and
// server.Exec, and checks it reached the served verdict.
func replayServed(rec *Recorder, req int64, d *daemon, pool *tenant.CachePool, id, op string, want server.Response) bool {
	ent, _ := d.reg.Get(id)
	root := rec.Begin(req, -1, "replay")
	defer rec.End(root)
	var c *muppet.SolveCache
	rec.Do(req, root, "tenant.checkout", func() { c = pool.Checkout() })
	var resp server.Response
	var err error
	rec.Do(req, root, "server.exec", func() {
		resp, err = server.Exec(context.Background(), ent.State, c, server.Request{Op: op}, muppet.Budget{})
	})
	rec.Do(req, root, "tenant.checkin", func() { pool.Checkin(c) })
	return err == nil && resp == want
}
