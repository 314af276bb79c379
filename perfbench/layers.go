package main

import (
	"time"

	"muppet"
)

// traceData gathers what a traced run measured; emit turns it into the
// per-layer metrics, the same set on every workload (a layer a workload
// never reaches reports 0).
type traceData struct {
	spans []Span
	// counts come from a fixed, seed-determined set of replays, so two
	// traced runs with one seed report identical counts.
	counts Counts
	// Timed-call mean latency with and without spans recorded.
	tracedMean, untracedMean float64
	goAllocMB, gcCPURatio    float64
	reuse                    muppet.ReuseStats
	rejections, evictions    int64
	watchLagMs               float64
}

// spanTimes is each layer's self time per request that entered it, in ms.
var spanTimes = []struct{ span, metric string }{
	{"mesh.load", "mesh.load_ms"},
	{"goals.load", "goals.load_ms"},
	{"encode.system", "encode.system_ms"},
	{"encode.parties", "encode.parties_ms"},
	{"server.load", "server.load_ms"},
	{"relational.ground", "relational.ground_ms"},
	{"sat.solve", "sat.solve_ms"},
	{"target.minimize", "target.minimize_ms"},
	{"ucore.find", "ucore.find_ms"},
	{"envelope.compute", "envelope.compute_ms"},
	{"server.exec", "server.exec_ms"},
	{"http.roundtrip", "http.roundtrip_ms"},
	{"tenant.checkout", "tenant.checkout_ms"},
	{"tenant.reload", "tenant.reload_ms"},
	{"delta.snapshot", "delta.snapshot_ms"},
	{"delta.compare", "delta.compare_ms"},
	{"muppet.rebase", "muppet.rebase_ms"},
}

func (t *traceData) emit(r *Result) {
	rep := Report(t.spans, "replay")
	perReq := map[string]map[int64]bool{}
	for _, s := range t.spans {
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int64]bool{}
		}
		perReq[s.Name][s.Req] = true
	}
	per := func(span string) float64 {
		n := len(perReq[span])
		if n == 0 {
			return 0
		}
		return ms(rep.Self[span]) / float64(n)
	}
	for _, st := range spanTimes {
		r.set(st.metric, per(st.span), "ms")
	}
	// Round trip minus exec is transport and admission wait, where each
	// served request was replayed through the pool (tenant.checkout).
	overhead := 0.0
	if len(perReq["tenant.checkout"]) > 0 {
		overhead = per("http.roundtrip") - per("server.exec")
	}
	r.set("server.overhead_ms", overhead, "ms")
	r.set("muppet.workflow_ms", workflowMs(t.spans), "ms")
	// Where queries were replayed layer by layer, how the program's Exec
	// time splits between grounding and search (the first solve with its
	// preprocessing, then the minimal-edit descent).
	if exec := rep.Self["server.exec"]; exec > 0 && rep.Self["sat.solve"] > 0 {
		share := func(names ...string) float64 {
			var d time.Duration
			for _, n := range names {
				d += rep.Self[n]
			}
			return 100 * float64(d) / float64(exec)
		}
		r.note("replayed share of server.exec: relational.ground %.0f%%, sat.solve + target.minimize %.0f%%",
			share("relational.ground"), share("sat.solve", "target.minimize"))
	}
	r.set("server.watch_lag_ms", t.watchLagMs, "ms")

	cover := 0.0
	if rep.Roots > 0 {
		cover = float64(rep.Covered) / float64(rep.Roots)
	}
	r.set("trace.coverage", cover, "ratio")
	ratio := 0.0
	if t.untracedMean > 0 {
		ratio = t.tracedMean / t.untracedMean
	}
	r.set("trace.overhead_ratio", ratio, "ratio")

	c := t.counts
	mean := func(x int64) float64 {
		if c.N == 0 {
			return 0
		}
		return float64(x) / float64(c.N)
	}
	r.set("boolcirc.nodes", mean(c.Nodes), "count")
	r.set("sat.vars", mean(c.Vars), "count")
	r.set("sat.clauses", mean(c.Clauses), "count")
	r.set("sat.conflicts", mean(c.Conflicts), "count")
	r.set("sat.propagations", mean(c.Propagations), "count")
	r.set("sat.decisions", mean(c.Decides), "count")
	r.set("simp.vars_eliminated", mean(c.Eliminated), "count")
	r.set("simp.clauses_removed", mean(c.Removed), "count")
	r.set("target.solves", mean(c.TargetSolves), "count")
	r.set("target.conflicts", mean(c.TargetConflicts), "count")
	r.set("envelope.nodes", mean(c.EnvNodes), "count")
	r.set("delta.groups_kept", mean(c.GroupsKept), "count")
	r.set("delta.groups_reasserted", mean(c.GroupsReasserted), "count")
	r.set("delta.restored_vars", mean(c.Restored), "count")
	r.set("delta.warm_ratio", mean(c.Warm), "ratio")

	ratioOf := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	u := t.reuse
	r.set("muppet.reuse_ratio", ratioOf(u.Reuses, u.Sessions), "ratio")
	hits := u.Translation.PointerHits + u.Translation.StructHits
	r.set("muppet.xlate_hit_rate", ratioOf(hits, u.Translation.Misses), "ratio")
	r.set("server.rejections", float64(t.rejections), "count")
	r.set("tenant.evictions", float64(t.evictions), "count")
	r.set("go.alloc_mb_per_query", t.goAllocMB, "MB")
	r.set("go.gc_cpu_ratio", t.gcCPURatio, "ratio")
}

// belowWorkflow names the replayed layers a workflow call runs inside
// server.Exec: party encoding, grounding, solving, minimisation, cores and
// envelopes.
var belowWorkflow = map[string]bool{
	"encode.parties": true, "relational.ground": true, "sat.solve": true,
	"target.minimize": true, "ucore.find": true, "envelope.compute": true,
}

// workflowMs is the muppet layer's time per request: the program's own
// server.Exec time minus what the replay of the same request spent in the
// layers below the workflow. What is left is internal/muppet's workflow
// code (workspaces, selectors, soft literals, warm-session reuse,
// decoding) and the response render. On the served workloads the replay
// runs the program's warm Exec itself, with no layer spans under it, so
// the whole Exec counts; on the one-shot workloads it is a difference of
// the timed call and its replay, and can read 0 when the workflow's own
// share drowns in the two runs' difference.
func workflowMs(spans []Span) float64 {
	exec := map[int64]time.Duration{}
	below := map[int64]time.Duration{}
	for _, s := range spans {
		switch {
		case s.End < s.Start:
		case s.Name == "server.exec":
			exec[s.Req] += s.End - s.Start
		case belowWorkflow[s.Name]:
			below[s.Req] += s.End - s.Start
		}
	}
	if len(exec) == 0 {
		return 0
	}
	var total time.Duration
	for req, e := range exec {
		total += e - below[req]
	}
	return max(0, ms(total)/float64(len(exec)))
}

// goDelta turns two runtime samples around n queries into the Go-runtime
// layer's figures.
func (t *traceData) goDelta(a, b goSample, n int) {
	if n > 0 {
		t.goAllocMB = (b.allocBytes - a.allocBytes) / float64(n) / (1 << 20)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		t.gcCPURatio = (b.gcCPU - a.gcCPU) / cpu
	}
}
