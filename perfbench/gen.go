package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"muppet/internal/goals"
	"muppet/internal/mesh"
	"muppet/internal/scenario"
	"muppet/internal/server"
)

// Input is one generated bundle: the files the program loads, and the
// in-memory rows they were rendered from (the oracle's ground truth).
type Input struct {
	Name  string
	Files map[string][]byte // file name → content, all in one directory

	Mesh       *mesh.Mesh
	K8sGoals   []goals.K8sGoal
	IstioGoals []goals.IstioGoal
	Ports      []int  // extra inventory ports passed to the loader
	Strict     bool   // Istio goals pin banned ports: reconcile must fail
	K8sOffer   string // fixed|soft; the Istio offer is always soft

	k8s   *mesh.K8sConfig // current configurations, as rendered
	istio *mesh.IstioConfig
}

// Bundle file names, fixed so every input directory has the same shape.
const (
	fileMesh       = "mesh.yaml"
	fileK8s        = "k8s.yaml"
	fileIstio      = "istio.yaml"
	fileK8sGoals   = "k8s_goals.csv"
	fileIstioGoals = "istio_goals.csv"
	fileManifest   = "tenant.yaml"
)

// shape sizes one generated scenario.
type shape struct {
	Services, Ports, FlowsPerService, Bans int
}

// newInput generates one scenario and renders it. The K8s ban rows come
// out of scenario.Generate in map order; sorting them by port is what
// makes one seed give byte-identical files.
func newInput(name string, sh shape, seed int64, strict bool) *Input {
	sc := scenario.Generate(scenario.Params{
		Services:        sh.Services,
		PortsPerService: sh.Ports,
		Flows:           sh.Services * sh.FlowsPerService,
		BannedPorts:     sh.Bans,
		Seed:            seed,
	})
	k8sGoals := append([]goals.K8sGoal(nil), sc.K8sGoals...)
	sort.Slice(k8sGoals, func(i, j int) bool { return k8sGoals[i].Port < k8sGoals[j].Port })
	istio := sc.IstioRelaxed
	if strict {
		istio = sc.IstioStrict
	}
	in := &Input{
		Name: name, Mesh: sc.Mesh, K8sGoals: k8sGoals, IstioGoals: istio,
		Ports: append([]int(nil), sc.ExtraPorts...), Strict: strict, K8sOffer: "soft",
	}
	in.render(sc.K8sCurrent, sc.IstioCurrent)
	return in
}

// fig1Input is the paper's Fig. 1 walkthrough: three services, the Fig. 2
// port-23 ban, and the Fig. 4 relaxed Istio goals, with soft offers.
func fig1Input() *Input {
	m := &mesh.Mesh{Services: []*mesh.Service{
		{Name: "test-frontend", Labels: map[string]string{"app": "frontend"}, Ports: []int{23}},
		{Name: "test-backend", Labels: map[string]string{"app": "backend"}, Ports: []int{25, 12000}},
		{Name: "test-db", Labels: map[string]string{"app": "db"}, Ports: []int{16000}},
	}}
	k8s := &mesh.K8sConfig{Policies: []*mesh.NetworkPolicy{{Name: "cluster-default"}}}
	istio := &mesh.IstioConfig{Policies: []*mesh.AuthorizationPolicy{
		{Name: "frontend-policy", Target: map[string]string{"app": "frontend"}, AllowFromServices: []string{"test-backend"}},
		{Name: "backend-policy", Target: map[string]string{"app": "backend"}, AllowFromServices: []string{"test-frontend", "test-db"}},
		{Name: "db-policy", Target: map[string]string{"app": "db"}, AllowFromServices: []string{"test-backend"}},
	}}
	in := &Input{
		Name:     "fig1",
		Mesh:     m,
		K8sOffer: "soft",
		K8sGoals: []goals.K8sGoal{{Port: 23, Allow: false}},
		IstioGoals: []goals.IstioGoal{
			{Src: "test-frontend", Dst: "test-backend", SrcPort: goals.VarPort("w"), DstPort: goals.VarPort("x"), Allow: true},
			{Src: "test-backend", Dst: "test-frontend", SrcPort: goals.VarPort("y"), DstPort: goals.VarPort("z"), Allow: true},
			{Src: "test-backend", Dst: "test-db", SrcPort: goals.LitPort(14000), DstPort: goals.LitPort(16000), Allow: true},
			{Src: "test-db", Dst: "test-backend", SrcPort: goals.LitPort(10000), DstPort: goals.LitPort(12000), Allow: true},
		},
	}
	in.render(k8s, istio)
	return in
}

func (in *Input) render(k8s *mesh.K8sConfig, istio *mesh.IstioConfig) {
	in.k8s, in.istio = k8s, istio
	var b strings.Builder
	for i, s := range in.Mesh.Services {
		if i > 0 {
			b.WriteString("---\n")
		}
		fmt.Fprintf(&b, "apiVersion: v1\nkind: Service\nmetadata:\n  name: %s\n", s.Name)
		writeMap(&b, "  labels", s.Labels, "    ")
		b.WriteString("spec:\n")
		writeList(&b, "  ports", itoas(s.Ports), "    ")
	}
	mesh := b.String()

	b.Reset()
	for i, p := range k8s.Policies {
		if i > 0 {
			b.WriteString("---\n")
		}
		fmt.Fprintf(&b, "apiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\nmetadata:\n  name: %s\nspec:\n", p.Name)
		if len(p.Selector) == 0 {
			b.WriteString("  podSelector: {}\n")
		} else {
			b.WriteString("  podSelector:\n")
			writeMap(&b, "    matchLabels", p.Selector, "      ")
		}
		writeSection(&b, "ingress", list{"denyPorts", itoas(p.IngressDenyPorts)}, list{"allowPorts", itoas(p.IngressAllowPorts)})
		writeSection(&b, "egress", list{"denyPorts", itoas(p.EgressDenyPorts)}, list{"allowPorts", itoas(p.EgressAllowPorts)})
	}
	k8sYAML := b.String()

	b.Reset()
	for i, p := range istio.Policies {
		if i > 0 {
			b.WriteString("---\n")
		}
		fmt.Fprintf(&b, "apiVersion: security.istio.io/v1beta1\nkind: AuthorizationPolicy\nmetadata:\n  name: %s\nspec:\n  selector:\n", p.Name)
		writeMap(&b, "    matchLabels", p.Target, "      ")
		writeSection(&b, "egress", list{"denyToPorts", itoas(p.DenyToPorts)}, list{"allowToPorts", itoas(p.AllowToPorts)})
		writeSection(&b, "ingress", list{"denyFromServices", p.DenyFromServices}, list{"allowFromServices", p.AllowFromServices})
	}
	istioYAML := b.String()

	k8sGoals := k8sGoalsCSV(in.K8sGoals)

	b.Reset()
	b.WriteString("srcService,dstService,srcPort,dstPort\n")
	for _, g := range in.IstioGoals {
		fmt.Fprintln(&b, g.String())
	}
	istioGoals := b.String()

	b.Reset()
	fmt.Fprintf(&b, "files: [%s, %s, %s]\nk8s-goals: %s\nistio-goals: %s\nk8s-offer: %s\nistio-offer: soft\n",
		fileMesh, fileK8s, fileIstio, fileK8sGoals, fileIstioGoals, in.K8sOffer)
	if len(in.Ports) > 0 {
		fmt.Fprintf(&b, "ports: [%s]\n", strings.Join(itoas(in.Ports), ", "))
	}

	in.Files = map[string][]byte{
		fileMesh:       []byte(mesh),
		fileK8s:        []byte(k8sYAML),
		fileIstio:      []byte(istioYAML),
		fileK8sGoals:   []byte(k8sGoals),
		fileIstioGoals: []byte(istioGoals),
		fileManifest:   []byte(b.String()),
	}
}

func k8sGoalsCSV(gs []goals.K8sGoal) string {
	var b strings.Builder
	b.WriteString("port,perm,selector\n")
	for _, g := range gs {
		fmt.Fprintln(&b, g.String())
	}
	return b.String()
}

// withK8sGoals is the same bundle with another K8s goal table: a goal
// revision, which rewrites only the K8s goals CSV.
func (in *Input) withK8sGoals(gs []goals.K8sGoal) *Input {
	out := *in
	out.K8sGoals = gs
	out.Files = make(map[string][]byte, len(in.Files))
	for k, v := range in.Files {
		out.Files[k] = v
	}
	out.Files[fileK8sGoals] = []byte(k8sGoalsCSV(gs))
	return &out
}

// withK8sOffer is the same bundle with the K8s configuration offered as
// given (fixed|soft).
func (in *Input) withK8sOffer(offer string) *Input {
	out := *in
	out.K8sOffer = offer
	out.render(in.k8s, in.istio)
	return &out
}

func writeMap(b *strings.Builder, head string, m map[string]string, indent string) {
	if len(m) == 0 {
		fmt.Fprintf(b, "%s: {}\n", head)
		return
	}
	fmt.Fprintf(b, "%s:\n", head)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s%s: %s\n", indent, k, m[k])
	}
}

func writeList(b *strings.Builder, head string, items []string, indent string) {
	fmt.Fprintf(b, "%s:\n", head)
	for _, it := range items {
		fmt.Fprintf(b, "%s- %s\n", indent, it)
	}
}

// list is one YAML list of a policy's ingress or egress block.
type list struct {
	key   string
	items []string
}

// writeSection renders a policy's ingress/egress block, omitting empty
// lists (the loader reads an absent list as empty).
func writeSection(b *strings.Builder, name string, lists ...list) {
	var body strings.Builder
	for _, l := range lists {
		if len(l.items) > 0 {
			writeList(&body, "    "+l.key, l.items, "      ")
		}
	}
	if body.Len() > 0 {
		fmt.Fprintf(b, "  %s:\n%s", name, body.String())
	}
}

func itoas(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}

// Write puts the bundle's files into dir, creating it.
func (in *Input) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range in.Files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Config names the bundle in dir the way the muppet CLI's flags would.
func (in *Input) Config(dir string) server.Config {
	p := func(name string) string { return filepath.Join(dir, name) }
	return server.Config{
		Files:      strings.Join([]string{p(fileMesh), p(fileK8s), p(fileIstio)}, ","),
		K8sGoals:   p(fileK8sGoals),
		IstioGoals: p(fileIstioGoals),
		K8sOffer:   in.K8sOffer,
		IstioOffer: "soft",
		Ports:      strings.Join(itoas(in.Ports), ","),
	}
}

// sizes spreads n service counts evenly over [lo, hi], so the size mix is
// the same for every seed and only the scenario details vary.
func sizes(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo+1)/n
	}
	return out
}
