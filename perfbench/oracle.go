package main

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"muppet"
	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/server"
)

// The verdict oracle checks each distinct query's reference response
// without trusting the solver: configurations printed in the response are
// parsed back and every goal row is evaluated on them with the direct
// mesh evaluator (mesh.Allowed), which shares no code with the encoding,
// grounding or SAT layers.

// served is one configuration pair as a response prints it.
type served struct {
	K8s      *mesh.K8sConfig
	Istio    *mesh.IstioConfig
	Exposure map[string][]int // nil: the mesh's own listening ports
}

var (
	reNetPol = regexp.MustCompile(`^NetworkPolicy (\S+) selector=(\S+) ingressDeny=\[([^\]]*)\] ingressAllow=\[([^\]]*)\] egressDeny=\[([^\]]*)\] egressAllow=\[([^\]]*)\]$`)
	reAuthz  = regexp.MustCompile(`^AuthorizationPolicy (\S+) target=(\S+) denyTo=\[([^\]]*)\] allowTo=\[([^\]]*)\] denyFrom=\[([^\]]*)\] allowFrom=\[([^\]]*)\]$`)
	reExpo   = regexp.MustCompile(`(\S+?):\[([^\]]*)\]`)
)

// section returns the lines after header up to the next "--- " header.
func section(out, header string) ([]string, bool) {
	_, rest, ok := strings.Cut(out, header+"\n")
	if !ok {
		return nil, false
	}
	var lines []string
	for _, l := range strings.Split(rest, "\n") {
		if strings.HasPrefix(l, "--- ") {
			break
		}
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines, true
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Fields(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSelector(s string) map[string]string {
	if s == "*" {
		return nil
	}
	m := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		k, v, _ := strings.Cut(kv, "=")
		m[k] = v
	}
	return m
}

func parseK8s(lines []string) (*mesh.K8sConfig, error) {
	c := &mesh.K8sConfig{}
	for _, l := range lines {
		m := reNetPol.FindStringSubmatch(l)
		if m == nil {
			return nil, fmt.Errorf("unparsable K8s line %q", l)
		}
		p := &mesh.NetworkPolicy{Name: m[1], Selector: parseSelector(m[2])}
		var err [4]error
		p.IngressDenyPorts, err[0] = parseInts(m[3])
		p.IngressAllowPorts, err[1] = parseInts(m[4])
		p.EgressDenyPorts, err[2] = parseInts(m[5])
		p.EgressAllowPorts, err[3] = parseInts(m[6])
		for _, e := range err {
			if e != nil {
				return nil, fmt.Errorf("K8s line %q: %w", l, e)
			}
		}
		c.Policies = append(c.Policies, p)
	}
	return c, nil
}

func parseIstio(lines []string) (*mesh.IstioConfig, map[string][]int, error) {
	c := &mesh.IstioConfig{}
	var exposure map[string][]int
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "exposure: map["); ok {
			exposure = make(map[string][]int)
			for _, m := range reExpo.FindAllStringSubmatch(strings.TrimSuffix(rest, "]"), -1) {
				ports, err := parseInts(m[2])
				if err != nil {
					return nil, nil, fmt.Errorf("exposure %q: %w", l, err)
				}
				exposure[m[1]] = ports
			}
			continue
		}
		m := reAuthz.FindStringSubmatch(l)
		if m == nil {
			return nil, nil, fmt.Errorf("unparsable Istio line %q", l)
		}
		p := &mesh.AuthorizationPolicy{Name: m[1], Target: parseSelector(m[2])}
		var err [2]error
		p.DenyToPorts, err[0] = parseInts(m[3])
		p.AllowToPorts, err[1] = parseInts(m[4])
		for _, e := range err {
			if e != nil {
				return nil, nil, fmt.Errorf("Istio line %q: %w", l, e)
			}
		}
		p.DenyFromServices = strings.Fields(m[5])
		p.AllowFromServices = strings.Fields(m[6])
		c.Policies = append(c.Policies, p)
	}
	return c, exposure, nil
}

// parseServed reads the K8s and Istio configuration sections a reconcile
// or negotiate response prints.
func parseServed(out string) (*served, error) {
	kl, ok1 := section(out, "--- K8s configuration ---")
	il, ok2 := section(out, "--- Istio configuration ---")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("response lacks configuration sections")
	}
	k8s, err := parseK8s(kl)
	if err != nil {
		return nil, err
	}
	istio, exposure, err := parseIstio(il)
	if err != nil {
		return nil, err
	}
	return &served{K8s: k8s, Istio: istio, Exposure: exposure}, nil
}

// inventory is the port set the loader bounds the problem by: listening
// ports, extra ports, and every literal goal port.
func (in *Input) inventory() []int {
	set := make(map[int]bool)
	for _, p := range in.Mesh.Ports() {
		set[p] = true
	}
	for _, p := range in.Ports {
		set[p] = true
	}
	for _, g := range in.K8sGoals {
		set[g.Port] = true
	}
	for _, g := range in.IstioGoals {
		for _, t := range []goals.PortTerm{g.SrcPort, g.DstPort} {
			if t.Kind == goals.PortLit {
				set[t.Port] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// meshFor applies a served exposure to the input's mesh.
func (in *Input) meshFor(exposure map[string][]int) *mesh.Mesh {
	if exposure == nil {
		return in.Mesh
	}
	out := &mesh.Mesh{}
	for _, s := range in.Mesh.Services {
		out.Services = append(out.Services, &mesh.Service{Name: s.Name, Labels: s.Labels, Ports: exposure[s.Name]})
	}
	return out
}

// k8sViolations lists the K8s goal rows the configuration breaks.
func (in *Input) k8sViolations(c *served) []string {
	m := in.meshFor(c.Exposure)
	var bad []string
	for _, g := range in.K8sGoals {
		for _, src := range m.Services {
			for _, dst := range m.Services {
				if !dst.HasLabels(g.Selector) {
					continue
				}
				if g.Allow && !in.Mesh.Service(dst.Name).Listens(g.Port) {
					continue
				}
				f := mesh.Flow{Src: src.Name, Dst: dst.Name, DstPort: g.Port}
				if mesh.Allowed(m, c.K8s, c.Istio, f) != g.Allow {
					bad = append(bad, fmt.Sprintf("k8s goal %s fails on %s", g, f))
				}
			}
		}
	}
	return bad
}

// istioViolations lists the Istio goal rows no choice of the rows'
// existential destination ports satisfies, by enumeration over the port
// inventory.
func (in *Input) istioViolations(c *served) []string {
	m := in.meshFor(c.Exposure)
	ports := in.inventory()
	services := func(name string) []string {
		if name == "*" {
			return m.ServiceNames()
		}
		return []string{name}
	}
	holds := func(g goals.IstioGoal, env map[string]int) bool {
		dstPorts := []int{}
		switch g.DstPort.Kind {
		case goals.PortLit:
			dstPorts = append(dstPorts, g.DstPort.Port)
		case goals.PortVar:
			dstPorts = append(dstPorts, env[g.DstPort.Var])
		default:
			if !g.Allow {
				dstPorts = ports // DENY on `*`: blocked on every port
			}
		}
		for _, s := range services(g.Src) {
			for _, d := range services(g.Dst) {
				if g.Allow && g.DstPort.Kind == goals.PortAny {
					ok := false
					for _, p := range ports {
						if mesh.Allowed(m, c.K8s, c.Istio, mesh.Flow{Src: s, Dst: d, DstPort: p}) {
							ok = true
							break
						}
					}
					if !ok {
						return false
					}
					continue
				}
				for _, p := range dstPorts {
					if mesh.Allowed(m, c.K8s, c.Istio, mesh.Flow{Src: s, Dst: d, DstPort: p}) != g.Allow {
						return false
					}
				}
			}
		}
		return true
	}
	// Rows sharing a destination-port variable must agree on its value;
	// source ports take no part in admission, so their variables are free.
	var bad []string
	done := make([]bool, len(in.IstioGoals))
	for i, g := range in.IstioGoals {
		if done[i] {
			continue
		}
		group := []int{i}
		if g.DstPort.Kind == goals.PortVar {
			for j := i + 1; j < len(in.IstioGoals); j++ {
				if w := in.IstioGoals[j].DstPort; w.Kind == goals.PortVar && w.Var == g.DstPort.Var {
					group = append(group, j)
					done[j] = true
				}
			}
		}
		ok := false
		for _, p := range ports {
			env := map[string]int{g.DstPort.Var: p}
			ok = true
			for _, r := range group {
				ok = ok && holds(in.IstioGoals[r], env)
			}
			if ok || g.DstPort.Kind != goals.PortVar {
				break
			}
		}
		if !ok {
			for _, r := range group {
				bad = append(bad, fmt.Sprintf("istio goal %s fails", in.IstioGoals[r]))
			}
		}
	}
	return bad
}

// strictConflict reports whether some strict Istio row pins a flow onto a
// port a K8s row bans for its destination: the structural reason the
// strict goal set cannot be reconciled.
func (in *Input) strictConflict() bool {
	for _, ig := range in.IstioGoals {
		if !ig.Allow || ig.DstPort.Kind != goals.PortLit {
			continue
		}
		dst := in.Mesh.Service(ig.Dst)
		for _, kg := range in.K8sGoals {
			if !kg.Allow && kg.Port == ig.DstPort.Port && dst != nil && dst.HasLabels(kg.Selector) {
				return true
			}
		}
	}
	return false
}

// verify checks one reference response for query q. reconciled is the
// configuration the same input's reconcile reference serves, when there
// is one: the envelope check evaluates the envelope on it.
func verify(q *query, resp server.Response, reconciled *served) error {
	out := resp.Output
	first, _, _ := strings.Cut(out, "\n")
	wantCode := server.CodeSat
	if q.in.Strict {
		wantCode = server.CodeUnsat
	}
	if resp.Code != wantCode {
		return fmt.Errorf("%s: code %d, want %d: %.200s", q.key, resp.Code, wantCode, out)
	}
	switch q.req.Op {
	case "reconcile", "negotiate":
		if q.in.Strict {
			if first != "CANNOT RECONCILE" || !strings.Contains(out, "K8s/") || !strings.Contains(out, "Istio/") {
				return fmt.Errorf("%s: strict goals must fail with blame naming both parties: %.300s", q.key, out)
			}
			if !q.in.strictConflict() {
				return fmt.Errorf("%s: strict input has no structural conflict", q.key)
			}
			return nil
		}
		c, err := parseServed(out)
		if err != nil {
			return fmt.Errorf("%s: %w", q.key, err)
		}
		if bad := append(q.in.k8sViolations(c), q.in.istioViolations(c)...); len(bad) > 0 {
			return fmt.Errorf("%s: served configuration breaks goals: %s", q.key, strings.Join(bad, "; "))
		}
	case "check":
		if first != "CONSISTENT" {
			return fmt.Errorf("%s: want CONSISTENT, got %q", q.key, first)
		}
		for _, l := range strings.Split(out, "\n")[1:] {
			if l != "" && !strings.HasPrefix(l, "  soft edit: K8s: ") && !strings.HasPrefix(l, "  soft edit: Istio: ") {
				return fmt.Errorf("%s: unexpected line %q", q.key, l)
			}
		}
	case "conform":
		return verifyConform(q, out)
	case "envelope":
		return verifyEnvelope(q, out, reconciled)
	default:
		return fmt.Errorf("%s: no oracle for op %q", q.key, q.req.Op)
	}
	return nil
}

// verifyConform re-runs the conformance workflow through the public
// workflow API to learn the provider's final configuration (the response
// prints only the tenant's), checks the tenant part matches the served
// bytes, and evaluates every goal row on the pair.
func verifyConform(q *query, out string) error {
	if !strings.Contains(out, "\nCONFORMED\n") {
		return fmt.Errorf("%s: want CONFORMED: %.300s", q.key, out)
	}
	il, ok := section(out, "--- delivered tenant configuration ---")
	if !ok {
		return fmt.Errorf("%s: no delivered configuration", q.key)
	}
	istio, exposure, err := parseIstio(il)
	if err != nil {
		return fmt.Errorf("%s: %w", q.key, err)
	}
	st, err := server.Load(q.in.Config(q.dir))
	if err != nil {
		return err
	}
	k8s, ks, err := muppet.NewK8sParty(st.Sys, st.Bundle.K8s, st.K8sOffer, st.K8sGoalRows)
	if err != nil {
		return err
	}
	tenant, _, err := muppet.NewIstioParty(st.Sys, st.Bundle.Istio, st.IstioOffer, st.IstioGoalRows)
	if err != nil {
		return err
	}
	o := muppet.RunConformanceCtx(context.Background(), st.Sys, k8s, tenant, muppet.Budget{})
	if !o.Reconciled {
		return fmt.Errorf("%s: re-run did not conform", q.key)
	}
	if got := strings.Join(il, "\n") + "\n"; got != tenant.Describe() {
		return fmt.Errorf("%s: served tenant configuration differs from the workflow's", q.key)
	}
	c := &served{K8s: ks.Config, Istio: istio, Exposure: exposure}
	if bad := append(q.in.k8sViolations(c), q.in.istioViolations(c)...); len(bad) > 0 {
		return fmt.Errorf("%s: conformed configuration breaks goals: %s", q.key, strings.Join(bad, "; "))
	}
	return nil
}

// verifyEnvelope checks Alg. 3's defining property against the direct
// evaluator: E_{K8s→Istio} holds on an Istio configuration exactly when
// the K8s goals hold on it beside K8s's current settings. It is checked
// on the current Istio configuration and on the reconciled one.
func verifyEnvelope(q *query, out string, reconciled *served) error {
	st, err := server.Load(q.in.Config(q.dir))
	if err != nil {
		return err
	}
	k8s, _, err := muppet.NewK8sParty(st.Sys, st.Bundle.K8s, st.K8sOffer, st.K8sGoalRows)
	if err != nil {
		return err
	}
	istio, _, err := muppet.NewIstioParty(st.Sys, st.Bundle.Istio, st.IstioOffer, st.IstioGoalRows)
	if err != nil {
		return err
	}
	env := muppet.ComputeEnvelope(st.Sys, istio, []*muppet.Party{k8s})
	if !strings.HasPrefix(out, env.String()) {
		return fmt.Errorf("%s: served envelope differs from the computed one", q.key)
	}
	points := []*served{{K8s: st.Bundle.K8s, Istio: st.Bundle.Istio}}
	if reconciled != nil {
		points = append(points, &served{K8s: st.Bundle.K8s, Istio: reconciled.Istio, Exposure: reconciled.Exposure})
	}
	for i, c := range points {
		exposure := c.Exposure
		if exposure == nil {
			exposure = map[string][]int{}
			for _, s := range q.in.Mesh.Services {
				exposure[s.Name] = s.Ports
			}
		}
		inst := st.Sys.InstanceFor(c.K8s, c.Istio, exposure)
		direct := len(q.in.k8sViolations(c)) == 0
		if env.Holds(inst) != direct {
			return fmt.Errorf("%s: envelope says %v at point %d, direct evaluation %v", q.key, env.Holds(inst), i, direct)
		}
	}
	return nil
}
