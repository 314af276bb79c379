package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"muppet/internal/goals"
	"muppet/internal/scenario"
	"muppet/internal/server"
)

// allInputs is every input the four workloads generate for one seed.
func allInputs(seed int64) []*Input {
	ins := append(sparseWorkload(seed).inputs, denseWorkload(seed).inputs...)
	ins = append(ins, serveTenants(seed)...)
	for _, states := range reviseTenants(seed) {
		ins = append(ins, states...)
	}
	return ins
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := allInputs(7), allInputs(7)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d inputs", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || !reflect.DeepEqual(a[i].Files, b[i].Files) {
			t.Fatalf("input %d (%s) differs between two generations of one seed", i, a[i].Name)
		}
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	a, b := allInputs(7), allInputs(8)
	differ := 0
	for i := range a {
		for name := range a[i].Files {
			if !bytes.Equal(a[i].Files[name], b[i].Files[name]) {
				differ++
				break
			}
		}
	}
	// fig1 is fixed; every generated input should move with the seed.
	if differ < len(a)-1 {
		t.Fatalf("only %d of %d inputs differ between seeds 7 and 8", differ, len(a))
	}
}

// TestFilesLoadAsScenario checks the rendered files round-trip through the
// program's real loaders to the in-memory scenario: same universe, same
// goal rows (K8s rows in port order).
func TestFilesLoadAsScenario(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for _, sh := range []shape{{6, 2, 1, 2}, {8, 3, 3, 6}} {
			const seed = 42
			sc := scenario.Generate(scenario.Params{
				Services: sh.Services, PortsPerService: sh.Ports,
				Flows: sh.Services * sh.FlowsPerService, BannedPorts: sh.Bans, Seed: seed,
			})
			in := newInput("x", sh, seed, strict)
			dir := filepath.Join(t.TempDir(), "x")
			if err := in.Write(dir); err != nil {
				t.Fatal(err)
			}
			st, err := server.Load(in.Config(dir))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := sc.System()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.Sys.Universe.Atoms(), sys.Universe.Atoms(); !reflect.DeepEqual(got, want) {
				t.Errorf("%v strict=%v: universe\n got %v\nwant %v", sh, strict, got, want)
			}
			k8s := append([]goals.K8sGoal(nil), sc.K8sGoals...)
			sort.Slice(k8s, func(i, j int) bool { return k8s[i].Port < k8s[j].Port })
			if !reflect.DeepEqual(st.K8sGoalRows, k8s) {
				t.Errorf("%v: K8s rows %v, want %v", sh, st.K8sGoalRows, k8s)
			}
			istio := sc.IstioRelaxed
			if strict {
				istio = sc.IstioStrict
			}
			if !reflect.DeepEqual(st.IstioGoalRows, istio) {
				t.Errorf("%v: Istio rows %v, want %v", sh, st.IstioGoalRows, istio)
			}
			if !reflect.DeepEqual(st.Bundle.Mesh, sc.Mesh) {
				t.Errorf("%v: mesh differs from the scenario's", sh)
			}
		}
	}
}
