package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"muppet"
	"muppet/internal/boolcirc"
	"muppet/internal/encode"
	"muppet/internal/envelope"
	core "muppet/internal/muppet"
	"muppet/internal/relational"
	"muppet/internal/sat"
	"muppet/internal/server"
	"muppet/internal/target"
	"muppet/internal/ucore"
)

// The solver steps of a one-shot query run inside one workflow call, out
// of the benchmark's reach. A traced run therefore replays each query
// through the layers' exported entry points — the loaders, encode,
// relational.Session (Lit, then SolveCtx), target.Minimize, ucore.FindCtx
// and envelope.Compute — mirroring the one-shot workspace of
// internal/muppet step for step, with a span around every call. The
// replay must reach the timed call's verdict and edit count; a mismatch
// is counted as a failure.

// Counts are the per-layer work counters a replay records. They are sums
// over N replayed queries.
type Counts struct {
	N                                int64
	Nodes, Vars, Clauses             int64 // boolcirc, sat
	Conflicts, Propagations, Decides int64 // sat search
	Eliminated, Removed              int64 // simp
	TargetSolves, TargetConflicts    int64 // target
	EnvNodes                         int64 // envelope
	GroupsKept, GroupsReasserted     int64 // delta
	Restored, Warm                   int64 // delta
}

func (c *Counts) add(o Counts) {
	c.N += o.N
	c.Nodes += o.Nodes
	c.Vars += o.Vars
	c.Clauses += o.Clauses
	c.Conflicts += o.Conflicts
	c.Propagations += o.Propagations
	c.Decides += o.Decides
	c.Eliminated += o.Eliminated
	c.Removed += o.Removed
	c.TargetSolves += o.TargetSolves
	c.TargetConflicts += o.TargetConflicts
	c.EnvNodes += o.EnvNodes
	c.GroupsKept += o.GroupsKept
	c.GroupsReasserted += o.GroupsReasserted
	c.Restored += o.Restored
	c.Warm += o.Warm
}

// replay is one replayed query: its spans hang under root.
type replay struct {
	rec    *Recorder
	req    int64
	root   int
	ctx    context.Context
	counts Counts
	xlate  relational.CacheStats // translator cache counters of the replay's sessions
	// reusable mirrors a cache-owned workspace instead of a one-shot one:
	// the solver keeps its default preprocessing floor, and the named
	// assumptions stay assumptions through the minimal-edit search.
	reusable bool
}

func (r *replay) do(name string, fn func()) { r.rec.Do(r.req, r.root, name, fn) }

// verdict is what a replay must agree on with the timed response.
type verdict struct {
	Code  int
	Edits int
	Env   string // envelope text, for envelope queries
}

// party couples a workflow party with the state its offer binds from —
// the replay's stand-in for the party's unexported bindFree.
type party struct {
	p    *muppet.Party
	bind func(*relational.Bounds) *encode.OfferMap
}

// load replays server.Load through the loaders and encode.
func (r *replay) load(cfg server.Config) (*server.State, []*party, error) {
	var err error
	st := &server.State{}
	r.do("mesh.load", func() { st.Bundle, err = muppet.LoadFiles(strings.Split(cfg.Files, ",")...) })
	if err != nil {
		return nil, nil, err
	}
	r.do("goals.load", func() {
		if st.K8sGoalRows, err = muppet.LoadK8sGoals(cfg.K8sGoals); err == nil {
			st.IstioGoalRows, err = muppet.LoadIstioGoals(cfg.IstioGoals)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	extra, err := server.ParsePorts(cfg.Ports)
	if err != nil {
		return nil, nil, err
	}
	for _, g := range st.K8sGoalRows {
		extra = append(extra, g.Port)
	}
	for _, g := range st.IstioGoalRows {
		for _, t := range []muppet.PortTerm{g.SrcPort, g.DstPort} {
			if t.Kind == muppet.PortLit {
				extra = append(extra, t.Port)
			}
		}
	}
	r.do("encode.system", func() {
		st.Sys, err = muppet.NewSystem(st.Bundle.Mesh, st.Bundle.K8s.Policies, st.Bundle.Istio.Policies, extra)
	})
	if err != nil {
		return nil, nil, err
	}
	if st.K8sOffer, err = server.ParseOffer(cfg.K8sOffer); err != nil {
		return nil, nil, err
	}
	if st.IstioOffer, err = server.ParseOffer(cfg.IstioOffer); err != nil {
		return nil, nil, err
	}
	var parties []*party
	r.do("encode.parties", func() { parties, err = newParties(st) })
	return st, parties, err
}

// newParties builds the K8s and Istio parties of a loaded state.
func newParties(st *server.State) ([]*party, error) {
	sys := st.Sys
	k8s, ks, err := muppet.NewK8sParty(sys, st.Bundle.K8s, st.K8sOffer, st.K8sGoalRows)
	if err != nil {
		return nil, err
	}
	istio, is, err := muppet.NewIstioParty(sys, st.Bundle.Istio, st.IstioOffer, st.IstioGoalRows)
	if err != nil {
		return nil, err
	}
	return []*party{
		{p: k8s, bind: func(b *relational.Bounds) *encode.OfferMap { return sys.BindK8sFree(b, ks.Config, ks.Offer) }},
		{p: istio, bind: func(b *relational.Bounds) *encode.OfferMap {
			om := sys.BindIstioFree(b, is.Config, is.Offer)
			if is.Exposure != nil {
				for i := range om.Infos {
					ki := &om.Infos[i]
					if ki.Knob.Field == encode.FieldExposure {
						ki.Desired = false
						for _, p := range is.Exposure[ki.Knob.Policy] {
							if fmt.Sprint(p) == ki.Knob.Key {
								ki.Desired = true
							}
						}
					}
				}
			}
			return om
		}},
	}, nil
}

// spec is a party's role in one workspace.
type spec struct {
	*party
	enforceFixed, includeGoals bool
}

// space mirrors a one-shot workspace: named selectors for blame, soft
// literals for the minimal-edit search.
type space struct {
	ss      *relational.Session
	named   []ucore.Named
	assumps []sat.Lit
	soft    []sat.Lit
}

func (w *space) addNamed(name string, l sat.Lit) {
	w.named = append(w.named, ucore.Named{Name: name, Lit: l})
	w.assumps = append(w.assumps, l)
}

// build grounds a workspace: bounds, the session, goal literals, then
// fixed-knob selector groups and soft literals per party.
func (r *replay) build(sys *encode.System, specs []spec, constraints []relational.Formula) *space {
	w := &space{}
	b := sys.NewBounds()
	oms := make([]*encode.OfferMap, len(specs))
	for i, sp := range specs {
		oms[i] = sp.bind(b)
	}
	enc := core.EncodingConfig()
	opts := sat.Options{DisableSimp: enc.NoPreprocess}
	opts.VivifyPropBudget, opts.BVETickPeriod = core.InprocessTuning()
	if !r.reusable {
		opts.SimpMinClauses = -1
	}
	r.do("relational.ground", func() {
		w.ss = relational.NewSessionWithOptions(b, boolcirc.New(), sat.NewWithOptions(opts),
			boolcirc.CNFOptions{NoPolarity: enc.NoPolarity, NoSweep: enc.NoSweep})
	})
	for i, sp := range specs {
		if sp.includeGoals {
			for _, g := range sp.p.Goals {
				var l sat.Lit
				r.do("relational.ground", func() { l = w.ss.Lit(g.Formula) })
				w.addNamed(sp.p.Name+"/"+g.Name, l)
			}
		}
		if sp.enforceFixed {
			w.enforceFixed(sp.p.Name, oms[i])
		}
		for _, ki := range oms[i].SoftInfos() {
			l, ok := w.ss.TupleLit(ki.Rel, ki.Tuple)
			if !ok {
				continue
			}
			if !ki.Desired {
				l = l.Not()
			}
			w.soft = append(w.soft, l)
		}
	}
	for i, f := range constraints {
		var l sat.Lit
		r.do("relational.ground", func() { l = w.ss.Lit(f) })
		w.addNamed(fmt.Sprintf("%s/constraint[%d]", specs[0].p.Name, i), l)
	}
	return w
}

// enforceFixed guards each (policy, field) group of fixed knobs with one
// selector, as the workflow does, so cores blame whole groups.
func (w *space) enforceFixed(name string, om *encode.OfferMap) {
	type key struct {
		policy string
		field  encode.Field
	}
	groups := make(map[key][]encode.KnobInfo)
	var order []key
	for _, ki := range om.Infos {
		if ki.State != encode.StateFixed {
			continue
		}
		k := key{ki.Knob.Policy, ki.Knob.Field}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ki)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].policy != order[j].policy {
			return order[i].policy < order[j].policy
		}
		return order[i].field < order[j].field
	})
	s := w.ss.Solver()
	for _, k := range order {
		var lits []sat.Lit
		for _, ki := range groups[k] {
			l, ok := w.ss.TupleLit(ki.Rel, ki.Tuple)
			if !ok {
				continue
			}
			if !ki.Desired {
				l = l.Not()
			}
			lits = append(lits, l)
		}
		sel := sat.PosLit(s.NewVar())
		s.FreezeLit(sel)
		for _, l := range lits {
			s.AddClause(sel.Not(), l)
		}
		w.addNamed(fmt.Sprintf("%s/config[%s.%s]", name, k.policy, k.field), sel)
	}
}

// result is a replayed completion step.
type result struct {
	OK    bool
	Edits int
	Inst  *relational.Instance
	Core  []string
}

// run is the solve → (core | harden → minimize) pipeline.
func (r *replay) run(w *space) result {
	s := w.ss.Solver()
	var st sat.Status
	r.do("sat.solve", func() { st = w.ss.SolveCtx(r.ctx, sat.Budget{}, w.assumps...) })
	defer r.note(w)
	if st != sat.Sat {
		var core []ucore.Named
		r.do("ucore.find", func() { core = ucore.FindCtx(r.ctx, sat.Budget{}, s, w.named) })
		names := make([]string, len(core))
		for i, n := range core {
			names[i] = n.Name
		}
		sort.Strings(names)
		return result{Core: names}
	}
	opts := target.Options{Context: r.ctx, Retractable: true, Canonical: true}
	if r.reusable {
		opts.Assumptions, opts.Encoder = w.assumps, target.NewEncoderCache()
	} else {
		for _, l := range w.assumps {
			s.AddClause(l)
		}
	}
	var res target.Result
	r.do("target.minimize", func() { res = target.Minimize(s, w.soft, opts) })
	r.counts.TargetSolves += int64(res.Stats.Solves)
	r.counts.TargetConflicts += res.Stats.Conflicts
	edits := 0
	for _, l := range w.soft {
		if res.Model[l.Var()] == l.Neg() {
			edits++
		}
	}
	return result{OK: true, Edits: edits, Inst: w.ss.Instance()}
}

// note adds a finished workspace's sizes and search counters.
func (r *replay) note(w *space) {
	s := w.ss.Solver()
	c := &r.counts
	c.Nodes += int64(w.ss.CNF().Factory().NumNodes())
	c.Vars += int64(s.NumVars())
	c.Clauses += int64(s.NumClauses())
	c.Conflicts += s.Stats.Conflicts
	c.Propagations += s.Stats.Propagations
	c.Decides += s.Stats.Decisions
	c.Eliminated += s.Stats.SimpVarsEliminated
	c.Removed += s.Stats.SimpClausesRemoved
	x := w.ss.CacheStats()
	r.xlate.PointerHits += x.PointerHits
	r.xlate.StructHits += x.StructHits
	r.xlate.Misses += x.Misses
}

func (r *replay) envelope(sys *encode.System, recipient *party, senders ...*party) *envelope.Envelope {
	merged := make(map[*relational.Relation]*relational.TupleSet)
	var goalFs []relational.Formula
	var names []string
	for _, s := range senders {
		names = append(names, s.p.Name)
		goalFs = append(goalFs, s.p.GoalFormulas()...)
		for rel, ts := range s.p.Fixed() {
			merged[rel] = ts
		}
	}
	for _, rel := range recipient.p.Domain {
		delete(merged, rel)
	}
	var env *envelope.Envelope
	r.do("envelope.compute", func() {
		env = envelope.Compute(strings.Join(names, ","), recipient.p.Name, goalFs, merged,
			recipient.p.Domain, sys.Universe, envelope.Options{Shared: sys.SharedTupleSets()})
	})
	r.counts.EnvNodes += int64(env.Size())
	return env
}

func (r *replay) reconcile(sys *encode.System, ps []*party) result {
	specs := make([]spec, len(ps))
	for i, p := range ps {
		specs[i] = spec{party: p, enforceFixed: true, includeGoals: true}
	}
	return r.run(r.build(sys, specs, nil))
}

func (r *replay) check(sys *encode.System, subject *party, others ...*party) result {
	specs := []spec{{party: subject, enforceFixed: true, includeGoals: true}}
	for _, o := range others {
		specs = append(specs, spec{party: o})
	}
	return r.run(r.build(sys, specs, nil))
}

// revise is the Fig. 8 revision: does p already satisfy env and its own
// goals beside the others; if not, a minimal edit that does.
func (r *replay) revise(sys *encode.System, env *envelope.Envelope, p *party, others ...*party) (conformed bool, res result) {
	op := make([]*muppet.Party, len(others))
	for i, o := range others {
		op[i] = o.p
	}
	if ok, _ := muppet.CheckCandidate(sys, p.p, env, true, op...); ok {
		return true, result{OK: true}
	}
	specs := []spec{{party: p, enforceFixed: true}}
	for _, o := range others {
		specs = append(specs, spec{party: o, enforceFixed: true})
	}
	constraints := append([]relational.Formula{env.Formula()}, p.p.GoalFormulas()...)
	res = r.run(r.build(sys, specs, constraints))
	if res.OK {
		p.p.Adopt(res.Inst)
	}
	return false, res
}

// query replays one request on a freshly loaded bundle.
func (r *replay) query(cfg server.Config, req server.Request) (verdict, error) {
	st, ps, err := r.load(cfg)
	if err != nil {
		return verdict{}, err
	}
	sys := st.Sys
	k8s, istio := ps[0], ps[1]
	code := func(ok bool) int {
		if ok {
			return server.CodeSat
		}
		return server.CodeUnsat
	}
	switch req.Op {
	case "check":
		res := r.check(sys, k8s, istio)
		return verdict{Code: code(res.OK), Edits: res.Edits}, nil
	case "reconcile":
		res := r.reconcile(sys, ps)
		return verdict{Code: code(res.OK), Edits: res.Edits}, nil
	case "envelope":
		env := r.envelope(sys, istio, k8s)
		return verdict{Code: server.CodeSat, Env: env.String()}, nil
	case "conform":
		if lc := r.check(sys, k8s, istio); !lc.OK {
			return verdict{Code: server.CodeUnsat}, nil
		}
		env := r.envelope(sys, istio, k8s)
		_, rev := r.revise(sys, env, istio, k8s)
		if !rev.OK {
			return verdict{Code: server.CodeUnsat}, nil
		}
		return verdict{Code: code(r.reconcile(sys, ps).OK), Edits: rev.Edits}, nil
	case "negotiate":
		return r.negotiate(sys, ps), nil
	}
	return verdict{}, fmt.Errorf("replay: unknown op %q", req.Op)
}

// negotiate mirrors the Fig. 9 round-robin: reconcile, else let each
// party in turn revise against the others' envelope and retry.
func (r *replay) negotiate(sys *encode.System, ps []*party) verdict {
	adoptAll := func(inst *relational.Instance) {
		for _, p := range ps {
			p.p.Adopt(inst)
		}
	}
	if rec := r.reconcile(sys, ps); rec.OK {
		adoptAll(rec.Inst)
		return verdict{Code: server.CodeSat}
	}
	edits, stuck := 0, 0
	for round := 0; round < 2*len(ps); round++ {
		i := round % len(ps)
		var others []*party
		for j, o := range ps {
			if j != i {
				others = append(others, o)
			}
		}
		env := r.envelope(sys, ps[i], others...)
		conformed, rev := r.revise(sys, env, ps[i], others...)
		if !conformed && !rev.OK {
			if stuck++; stuck >= len(ps) {
				break
			}
			continue
		}
		stuck = 0
		edits += rev.Edits
		if rec := r.reconcile(sys, ps); rec.OK {
			adoptAll(rec.Inst)
			return verdict{Code: server.CodeSat, Edits: edits}
		}
	}
	return verdict{Code: server.CodeUnsat, Edits: edits}
}

// servedVerdict reads the verdict and edit count a timed response shows.
func servedVerdict(op string, resp server.Response) verdict {
	v := verdict{Code: resp.Code}
	lines := strings.Split(resp.Output, "\n")
	switch op {
	case "check", "reconcile":
		for _, l := range lines {
			if strings.HasPrefix(l, "  soft edit: ") {
				v.Edits++
			}
		}
	case "conform":
		in := false
		for _, l := range lines {
			switch {
			case l == "tenant revision edits:":
				in = true
			case in && strings.HasPrefix(l, "   "):
				v.Edits++
			default:
				in = false
			}
		}
	case "negotiate":
		for _, l := range lines {
			var round, n int
			var who string
			if k, _ := fmt.Sscanf(l, "round %d: %s revised with %d edits", &round, &who, &n); k == 3 {
				v.Edits += n
			}
		}
	case "envelope":
		v.Env = resp.Output
	}
	return v
}

// agrees reports whether a replayed verdict matches the served one.
func (v verdict) agrees(served verdict) bool {
	if v.Env != "" || served.Env != "" {
		return strings.HasPrefix(served.Env, v.Env) && v.Env != ""
	}
	return v.Code == served.Code && v.Edits == served.Edits
}
