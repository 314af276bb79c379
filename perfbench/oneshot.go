package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/server"
)

// query is one request on one generated input.
type query struct {
	in  *Input
	dir string
	req server.Request
	key string // input name + op: one reference per key
}

// oneshotSpec is a CLI-path workload: its inputs and the query stream
// over them, one query per distinct (input, op) key.
type oneshotSpec struct {
	name   string
	inputs []*Input
	stream []*query
}

func addQueries(spec *oneshotSpec, in *Input, ops ...string) {
	for _, op := range ops {
		spec.stream = append(spec.stream, &query{in: in, req: server.Request{Op: op}, key: in.Name + "/" + op})
	}
}

// sparseWorkload: 96 bundles of 6–11 services (16 of each size), 2 ports
// per service, one flow per service and 2 bans — the front-end-bound
// case. Every bundle reconciles; each also takes one of check,
// negotiate, envelope, or a reconcile of its strict twin (the UNSAT-core
// path), and the 6-service bundles conform (conform costs about four
// reconciles). Many bundles per run keep the run's latency distribution
// close to the shape's, whatever the seed: with half as many, the median
// moved by about 7% from seed to seed on a quiet host.
func sparseWorkload(seed int64) *oneshotSpec {
	rng := rand.New(rand.NewSource(seed))
	spec := &oneshotSpec{name: "oneshot-sparse"}
	for i, n := range sizes(6, 11, 96) {
		s := rng.Int63()
		sh := shape{Services: n, Ports: 2, FlowsPerService: 1, Bans: 2}
		relaxed := newInput(fmt.Sprintf("sparse-%02d", i), sh, s, false)
		spec.inputs = append(spec.inputs, relaxed)
		addQueries(spec, relaxed, "reconcile")
		switch i % 4 {
		case 0:
			addQueries(spec, relaxed, "check")
		case 1:
			addQueries(spec, relaxed, "negotiate")
		case 2:
			addQueries(spec, relaxed, "envelope")
		case 3:
			strict := newInput(relaxed.Name+"-strict", sh, s, true)
			spec.inputs = append(spec.inputs, strict)
			addQueries(spec, strict, "reconcile")
		}
		if n == 6 {
			addQueries(spec, relaxed, "conform")
		}
	}
	return spec
}

// denseWorkload: 96 bundles of 6 services, 3 ports each, 3 flows per
// service and 6 bans, so every answer needs several minimal edits and
// the totalizer descent's repeated solves dominate: the search-bound
// case, with about 90 times the conflicts of an oneshot-sparse query.
// Every bundle reconciles once per cycle. One shape and one op keep the
// latencies in one cluster, so p50 falls inside it, not on the edge
// between clusters (conform runs on oneshot-sparse and serve-warm). The
// shape is smaller than the profiled 8 services / 7 bans so that a run
// covers about 100 bundles: bundle times spread widely within the shape,
// and with 32 bundles the median moved by about 10% from seed to seed.
func denseWorkload(seed int64) *oneshotSpec {
	rng := rand.New(rand.NewSource(seed))
	spec := &oneshotSpec{name: "oneshot-dense"}
	for i := 0; i < 96; i++ {
		in := newInput(fmt.Sprintf("dense-%02d", i), shape{Services: 6, Ports: 3, FlowsPerService: 3, Bans: 6}, rng.Int63(), false)
		spec.inputs = append(spec.inputs, in)
		addQueries(spec, in, "reconcile")
	}
	return spec
}

// distinct returns one query per key, sorted by key.
func distinct(stream []*query) []*query {
	seen := map[string]bool{}
	var out []*query
	for _, q := range stream {
		if !seen[q.key] {
			seen[q.key] = true
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// parallel runs fn(0..n-1) on one worker per client CPU and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					errs <- nil
					return
				}
				if err := fn(i); err != nil {
					next.Store(int64(n))
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < clients; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cliQuery is the muppet CLI's local path: load the bundle from disk,
// execute with no cache.
func cliQuery(ctx context.Context, q *query) (server.Response, error) {
	st, err := server.Load(q.in.Config(q.dir))
	if err != nil {
		return server.Response{}, err
	}
	return server.Exec(ctx, st, nil, q.req, muppet.Budget{})
}

// references computes each distinct query's reference and has the
// oracle check it; a reference the oracle rejects clears res.Correct.
// Envelope queries go second: their check evaluates the envelope on the
// same input's reconciled configuration.
func references(res *Result, qs []*query, exec func(*query) (server.Response, error)) (map[string]server.Response, error) {
	var first, second []*query
	for _, q := range distinct(qs) {
		if q.req.Op == "envelope" {
			second = append(second, q)
		} else {
			first = append(first, q)
		}
	}
	var mu sync.Mutex
	refs := make(map[string]server.Response, len(qs))
	reconciled := map[*Input]*served{}
	for _, batch := range [][]*query{first, second} {
		err := parallel(len(batch), func(i int) error {
			q := batch[i]
			resp, err := exec(q)
			if err != nil {
				return fmt.Errorf("reference %s: %w", q.key, err)
			}
			mu.Lock()
			rc := reconciled[q.in]
			mu.Unlock()
			bad := verify(q, resp, rc)
			mu.Lock()
			defer mu.Unlock()
			if bad != nil {
				res.Correct = false
				res.note("ORACLE: %v", bad)
			}
			if q.req.Op == "reconcile" && !q.in.Strict {
				reconciled[q.in], _ = parseServed(resp.Output)
			}
			refs[q.key] = resp
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// writeInputs writes every input under dir/<name>.
func writeInputs(dir string, inputs []*Input) error {
	for _, in := range inputs {
		if err := in.Write(filepath.Join(dir, in.Name)); err != nil {
			return err
		}
	}
	return nil
}

func runOneshot(o Options, spec *oneshotSpec) (*Result, error) {
	ctx := context.Background()
	res := &Result{Correct: true}

	// Set-up: write the bundles and load each once (the CLI path has no
	// caches to prime). Every repetition rewrites the same files.
	dir := filepath.Join(o.Work, "setup")
	setup, reps, err := repeatSetup(func() (func(), error) {
		if err := writeInputs(dir, spec.inputs); err != nil {
			return nil, err
		}
		for _, in := range spec.inputs {
			if _, err := server.Load(in.Config(filepath.Join(dir, in.Name))); err != nil {
				return nil, fmt.Errorf("load %s: %w", in.Name, err)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, q := range spec.stream {
		q.dir = filepath.Join(dir, q.in.Name)
	}
	t0 := time.Now()
	refs, err := references(res, spec.stream, func(q *query) (server.Response, error) { return cliQuery(ctx, q) })
	if err != nil {
		return nil, err
	}
	res.note("set-up %.4f s (median of %d); oracle checked %d references in %.3f s",
		setup, reps, len(refs), time.Since(t0).Seconds())

	// The stream order is a seeded shuffle, cycled until time is up.
	order := rand.New(rand.NewSource(o.Seed)).Perm(len(spec.stream))
	next := func(i int) *query { return spec.stream[order[i%len(order)]] }

	runtime.GC()
	debug.FreeOSMemory()
	timed := func(rec *Recorder, n int, deadline time.Time, each func(i int, q *query, resp server.Response)) (lat []float64, elapsed time.Duration) {
		start := time.Now()
		for i := 0; (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
			q := next(i)
			t := time.Now()
			var st *server.State
			var resp server.Response
			var err error
			rec.Do(int64(i), -1, "server.load", func() { st, err = server.Load(q.in.Config(q.dir)) })
			if err == nil {
				rec.Do(int64(i), -1, "server.exec", func() { resp, err = server.Exec(ctx, st, nil, q.req, muppet.Budget{}) })
			}
			d := time.Since(t)
			res.Attempted++
			ref := refs[q.key]
			if err != nil || resp.Code != ref.Code || resp.Output != ref.Output {
				res.fail(err, "%s", q.key)
				continue
			}
			lat = append(lat, ms(d))
			if each != nil {
				each(i, q, resp)
			}
		}
		return lat, time.Since(start)
	}

	if !o.Trace {
		rss := startRSS()
		lat, elapsed := timed(nil, 0, time.Now().Add(o.Seconds), nil)
		peak := rss.Stop()
		ok := res.Attempted - res.Failed
		res.set("setup_s", setup, "s")
		res.set("queries_per_s", float64(ok)/elapsed.Seconds(), "1/s")
		endToEnd(res, lat)
		res.set("peak_rss_mb", peak, "MB")
		return res, nil
	}

	// Traced run: an untraced half measures the baseline the traced half's
	// overhead is judged against; the traced half repeats the same queries
	// and replays each through the layers.
	var tr traceData
	g0 := readGo()
	lat, _ := timed(nil, 0, time.Now().Add(o.Seconds/2), nil)
	tr.goDelta(g0, readGo(), len(lat))
	tr.untracedMean = meanOf(lat)
	n := len(lat)
	rec := NewRecorder()
	lat, _ = timed(rec, n, time.Time{}, func(i int, q *query, resp server.Response) {
		rp := &replay{rec: rec, req: int64(i), ctx: ctx}
		rp.root = rec.Begin(rp.req, -1, "replay")
		v, err := rp.query(q.in.Config(q.dir), q.req)
		rec.End(rp.root)
		if err != nil || !v.agrees(servedVerdict(q.req.Op, resp)) {
			res.fail(err, "replay of %s reached %+v, served %+v", q.key, v, servedVerdict(q.req.Op, resp))
		}
		tr.reuse.Translation.PointerHits += rp.xlate.PointerHits
		tr.reuse.Translation.StructHits += rp.xlate.StructHits
		tr.reuse.Translation.Misses += rp.xlate.Misses
	})
	tr.tracedMean = meanOf(lat)
	tr.spans = rec.Spans()
	counts, err := countPass(ctx, spec.stream, refs)
	if err != nil {
		return nil, err
	}
	tr.counts = counts
	tr.emit(res)
	return res, nil
}

// countPass replays each distinct query once, untraced, in key order,
// and sums the layer counters; every replay must agree with its
// reference. Its counts depend only on the inputs, so two traced runs
// with one seed report the same. The first sizeChecks reconcile and check
// queries also go through checkSizes.
func countPass(ctx context.Context, qs []*query, refs map[string]server.Response) (Counts, error) {
	var c Counts
	checked := 0
	for _, q := range distinct(qs) {
		rp := &replay{ctx: ctx, root: -1}
		v, err := rp.query(q.in.Config(q.dir), q.req)
		if err != nil || !v.agrees(servedVerdict(q.req.Op, refs[q.key])) {
			return c, fmt.Errorf("count replay %s disagrees with its reference (%v)", q.key, err)
		}
		rp.counts.N = 1
		c.add(rp.counts)
		if (q.req.Op == "reconcile" || q.req.Op == "check") && checked < sizeChecks {
			checked++
			if err := checkSizes(ctx, q); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

// sizeChecks is how many queries of a count pass checkSizes compares.
const sizeChecks = 8

// checkSizes holds the replay to the program's own session: it serves q
// through server.Exec on a fresh SolveCache, whose ReuseStats report the
// circuit and solver sizes of the session the program built, and replays
// q in the cache-owned workspace mode. The circuit nodes, solver
// variables and solver clauses must be equal, so a replay that drifts
// from internal/muppet's workspace (its grounding order, selector
// groups, soft literals or solver options) fails the traced run.
func checkSizes(ctx context.Context, q *query) error {
	st, err := server.Load(q.in.Config(q.dir))
	if err != nil {
		return err
	}
	cache := muppet.NewSolveCache()
	if _, err := server.Exec(ctx, st, cache, q.req, muppet.Budget{}); err != nil {
		return err
	}
	prog := cache.Stats().Encoding
	rp := &replay{ctx: ctx, root: -1, reusable: true}
	if _, err := rp.query(q.in.Config(q.dir), q.req); err != nil {
		return err
	}
	got := rp.counts
	if got.Nodes != prog.CircuitNodes || got.Vars != prog.SolverVars || got.Clauses != prog.SolverClauses {
		return fmt.Errorf("replay of %s built %d nodes, %d vars, %d clauses; the program's session has %d, %d, %d",
			q.key, got.Nodes, got.Vars, got.Clauses, prog.CircuitNodes, prog.SolverVars, prog.SolverClauses)
	}
	return nil
}

// endToEnd sets the latency metric every workload reports, and notes the
// tail beside it in the report. The tail is not gated: runs of the same
// code on other seeds move it by more than the 25% bound, as a p90 rests
// on few samples, or on a few slow inputs.
func endToEnd(res *Result, lat []float64) {
	xs := append([]float64(nil), lat...)
	res.set("latency_p50_ms", quantile(xs, 0.5), "ms")
	line := fmt.Sprintf("latency over %d samples: p50 %.3f ms, p90 %.3f ms", len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	if len(xs) >= 1000 {
		line += fmt.Sprintf(", p99 %.3f ms", quantile(xs, 0.99))
	}
	res.note("%s", line)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
