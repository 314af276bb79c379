package main

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"muppet/internal/server"
)

// Two traced runs with one seed must report identical per-layer counts,
// so later changes can rest count-based evidence on them. Each pass here
// runs on freshly written files, as a separate run would.

func oneshotCounts(t *testing.T, spec *oneshotSpec, n int) Counts {
	t.Helper()
	dir := t.TempDir()
	if err := writeInputs(dir, spec.inputs); err != nil {
		t.Fatal(err)
	}
	qs := distinct(spec.stream)[:n]
	for _, q := range qs {
		q.dir = filepath.Join(dir, q.in.Name)
	}
	res := &Result{Correct: true}
	refs, err := references(res, qs, func(q *query) (server.Response, error) { return cliQuery(context.Background(), q) })
	if err != nil || !res.Correct {
		t.Fatal(err, res.Notes)
	}
	c, err := countPass(context.Background(), qs, refs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOneshotCountsRepeat(t *testing.T) {
	for _, mk := range []func(int64) *oneshotSpec{sparseWorkload, denseWorkload} {
		a := oneshotCounts(t, mk(3), 8)
		b := oneshotCounts(t, mk(3), 8)
		if a != b {
			t.Errorf("%s counts differ between runs of one seed:\n%+v\n%+v", mk(3).name, a, b)
		}
		if a.Nodes == 0 || a.Clauses == 0 || a.Conflicts == 0 || a.TargetSolves == 0 {
			t.Errorf("%s counts missing: %+v", mk(3).name, a)
		}
	}
}

func TestDeltaCountsRepeat(t *testing.T) {
	run := func() Counts {
		work := t.TempDir()
		tenants := reviseTenants(5)
		var qs []*query
		for ti, states := range tenants {
			for s, in := range states {
				dir := filepath.Join(work, "ref", in.Name, fmt.Sprint(s))
				if err := in.Write(dir); err != nil {
					t.Fatal(err)
				}
				qs = append(qs, &query{in: in, dir: dir, req: server.Request{Op: "reconcile"}, key: refKey(ti, s, "reconcile")})
			}
		}
		res := &Result{Correct: true}
		refs, err := references(res, qs, func(q *query) (server.Response, error) { return cliQuery(context.Background(), q) })
		if err != nil || !res.Correct {
			t.Fatal(err, res.Notes)
		}
		c, err := deltaCounts(Options{Seed: 5, Work: work}, tenants,
			func(ti, s int, op string) server.Response { return refs[refKey(ti, s, op)] })
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("delta counts differ between runs of one seed:\n%+v\n%+v", a, b)
	}
	if a.N != countRevisions || a.GroupsKept == 0 {
		t.Fatalf("delta counts missing: %+v", a)
	}
}

// The replay's sizes must equal those of the session the program itself
// builds for the same query, on both one-shot workloads' shapes.
func TestReplaySizesMatchProgram(t *testing.T) {
	for _, spec := range []*oneshotSpec{sparseWorkload(4), denseWorkload(4)} {
		dir := t.TempDir()
		if err := writeInputs(dir, spec.inputs); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, q := range distinct(spec.stream) {
			if n == 4 {
				break
			}
			if q.req.Op != "reconcile" && q.req.Op != "check" {
				continue
			}
			n++
			q.dir = filepath.Join(dir, q.in.Name)
			if err := checkSizes(context.Background(), q); err != nil {
				t.Error(err)
			}
		}
	}
}
