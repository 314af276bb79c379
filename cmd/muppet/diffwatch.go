// muppet diff and muppet watch: the CLI face of delta re-reconciliation.
// diff compares two on-disk revisions of a tenant bundle and (optionally)
// serves an op for the new revision through the warm rebase path, showing
// how incremental the step was. watch follows a daemon's watch endpoint
// and prints each revision's verdict as it is published.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"muppet"
	"muppet/internal/server"
	"muppet/internal/tenant"
)

// loadRevision loads a tenant revision from a tenant.yaml path or a
// directory containing one.
func loadRevision(path string) (*server.State, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, tenant.ManifestName)
	}
	st, _, err := server.ManifestLoader(path)()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// printDeltaStats renders one DeltaStats as a // commentary line, the
// same register as -v reuse statistics.
func printDeltaStats(ds muppet.DeltaStats) {
	if ds.Cold {
		fmt.Printf("// delta: cold rebuild (%s)\n", ds.Reason)
		return
	}
	fmt.Printf("// delta: warm rebase — groups: %d kept, %d re-asserted; goals: %d kept, +%d −%d; atoms changed: %d; vars restored: %d\n",
		ds.GroupsKept, ds.GroupsReasserted, ds.GoalsKept, ds.GoalsAdded, ds.GoalsRemoved, ds.AtomsChanged, ds.Restored)
}

// runDiff implements muppet diff: compare -before and -after revisions,
// print the changed goals and relational atoms, and with -op serve that
// op for the after revision from the before revision's warm sessions
// (cold rebuild when the revisions are incompatible), exiting with the
// op's verdict code. Without -op the exit code follows diff convention:
// 0 when the revisions are identical, 1 when they differ.
func runDiff(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var lim limits
	lim.register(fs)
	before := fs.String("before", "", "old revision: tenant.yaml or its directory")
	after := fs.String("after", "", "new revision: tenant.yaml or its directory")
	op := fs.String("op", "", "also serve this op for the new revision via warm rebase: "+strings.Join(server.Ops(), "|"))
	party := fs.String("party", "", "party for ops that need one (check)")
	provider := fs.String("provider", "", "provider for conform")
	fs.Parse(args)
	if *before == "" || *after == "" {
		return fmt.Errorf("%w: diff needs -before and -after", server.ErrUsage)
	}
	if *op != "" {
		known := false
		for _, o := range server.Ops() {
			known = known || o == *op
		}
		if !known {
			return fmt.Errorf("%w: unknown -op %q (want %s)", server.ErrUsage, *op, strings.Join(server.Ops(), "|"))
		}
	}
	ctx, cancel, budget, err := lim.apply(ctx)
	if err != nil {
		return err
	}
	defer cancel()

	stA, err := loadRevision(*before)
	if err != nil {
		return fmt.Errorf("before: %w", err)
	}
	stB, err := loadRevision(*after)
	if err != nil {
		return fmt.Errorf("after: %w", err)
	}
	snapA, err := stA.Snapshot()
	if err != nil {
		return err
	}
	snapB, err := stB.Snapshot()
	if err != nil {
		return err
	}
	plan := muppet.CompareRevisions(snapA, snapB)
	fmt.Println(plan.Summary())
	if *op == "" {
		if plan.Unchanged() {
			return nil
		}
		return statusErr(exitUnsat)
	}

	// Warm the old revision's sessions, then serve the op for the new one
	// through the rebase path — the minimal re-assertion the watch daemon
	// would compute for the same edit.
	req := server.Request{Op: *op, Party: *party, Provider: *provider}
	cache := muppet.NewSolveCache()
	serveState := stB
	if plan.Compatible {
		if _, err := server.Exec(ctx, stA, cache, req, budget); err != nil {
			return err
		}
		if rb, err := stB.RebasedOn(stA.Sys); err == nil {
			serveState = rb
		} else {
			cache = muppet.NewSolveCache() // incompatible in practice: go cold
		}
	}
	var resp server.Response
	var execErr error
	ds := cache.Rebase(plan, func() {
		resp, execErr = server.Exec(ctx, serveState, cache, req, budget)
	})
	if execErr != nil {
		return execErr
	}
	printDeltaStats(ds)
	if lim.verbose {
		printReuse(cache.Stats())
	}
	fmt.Print(resp.Output)
	if resp.Code != exitSat {
		return statusErr(resp.Code)
	}
	return nil
}

// runWatch implements muppet watch: a long-poll client for the daemon's
// watch endpoints. Each event prints a revision marker line followed by
// the op's output (and the delta commentary unless -raw), so scripts can
// split the stream on the markers.
func runWatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "", "muppetd address host:port (required)")
	tenantID := fs.String("tenant", "", "tenant to watch (default: the daemon's default tenant)")
	op := fs.String("op", "reconcile", "op to watch: "+strings.Join(server.Ops(), "|"))
	party := fs.String("party", "", "party for ops that need one (check)")
	provider := fs.String("provider", "", "provider for conform")
	events := fs.Int("events", 0, "stop after this many events (0 = until terminal or interrupt)")
	raw := fs.Bool("raw", false, "print only marker lines and op output, no delta commentary")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("%w: watch needs -addr", server.ErrUsage)
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	path := base + "/v1/watch/" + *op
	if *tenantID != "" {
		path = base + "/t/" + *tenantID + "/watch/" + *op
	}
	query := ""
	if *party != "" {
		query += "&party=" + *party
	}
	if *provider != "" {
		query += "&provider=" + *provider
	}

	client := &http.Client{} // no client timeout: long-polls park by design
	var since int64
	seen := 0
	for {
		url := fmt.Sprintf("%s?rev=%d%s", path, since, query)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		res, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted while parked: clean exit
			}
			return err
		}
		switch res.StatusCode {
		case http.StatusNoContent:
			res.Body.Close()
			continue // poll timeout: re-poll from the same revision
		case http.StatusOK:
		default:
			res.Body.Close()
			return fmt.Errorf("watch: daemon answered %s", res.Status)
		}
		var ev server.WatchEvent
		err = json.NewDecoder(res.Body).Decode(&ev)
		res.Body.Close()
		if err != nil {
			return fmt.Errorf("watch: bad event: %w", err)
		}
		if ev.Terminal {
			fmt.Printf("=== terminated (%s) ===\n", ev.Reason)
			return nil
		}
		fmt.Printf("=== revision %d (%s, code %d) ===\n", ev.Revision, ev.Op, ev.Code)
		if !*raw && ev.Delta != nil {
			printDeltaStats(muppet.DeltaStats{
				Cold: ev.Delta.Cold, Reason: ev.Delta.Reason,
				GroupsKept: ev.Delta.GroupsKept, GroupsReasserted: ev.Delta.GroupsReasserted,
				GoalsKept: ev.Delta.GoalsKept, GoalsAdded: ev.Delta.GoalsAdded,
				GoalsRemoved: ev.Delta.GoalsRemoved, AtomsChanged: ev.Delta.AtomsChanged,
				Restored: ev.Delta.Restored,
			})
		}
		fmt.Print(ev.Output)
		since = ev.Revision
		seen++
		if *events > 0 && seen >= *events {
			return nil
		}
	}
}
