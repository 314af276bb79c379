// Command muppetd is the long-running mediation daemon: it loads one or
// many mesh/goal bundles, compiles each into an immutable system, and
// serves the paper's workflows over HTTP/JSON from a pool of workers
// drawing warm solver sessions out of per-tenant cache pools.
//
// Endpoints:
//
//	POST /v1/{op}              — workflow op against the default tenant
//	POST /t/{tenant}/{op}      — workflow op against a named tenant
//	GET  /v1/watch/{op}        — watch mode against the default tenant:
//	                             long-poll (?rev=N, 204 on timeout) or SSE
//	                             (?stream=1); each hot reload is diffed
//	                             and re-solved incrementally, one event
//	                             per revision
//	GET  /t/{tenant}/watch/{op} — watch mode against a named tenant
//	GET  /tenants              — registry, revisions, cache-pool accounting
//	POST /tenants/{id}/reload  — hot-reload one tenant (?force=1 to swap
//	                             even when its inputs are unchanged)
//	POST /fed/{op}             — federated negotiation peer protocol
//	                             (join, propose, envelope, install,
//	                             describe; enabled by -fed-party)
//	GET  /healthz              — liveness
//	GET  /readyz               — readiness (503 while draining)
//	GET  /metrics              — Prometheus text exposition
//
// where op is check (Alg. 1), envelope (Alg. 3), reconcile (Alg. 2),
// conform (Fig. 7), or negotiate (Fig. 9).
//
// Single-tenant mode (-files ...) is the degenerate case: the bundle is
// registered as the "default" tenant and /v1/ serves it exactly as
// before. Multi-tenant mode (-tenant-dir) scans a directory of
// <id>/tenant.yaml manifests; SIGHUP (or -tenant-rescan polling) rescans
// it, adding new tenants, hot-reloading changed ones, and removing
// vanished ones. Reloads are atomic swaps — in-flight requests finish on
// the revision they started with.
//
// Request bodies are JSON (see internal/server.Request); budgets travel
// in the X-Muppet-Timeout and X-Muppet-Max-Conflicts headers, capped by
// -max-timeout. -cache-budget-mb bounds idle warm-session memory across
// all tenants; -router composes solver pools per op. Overload is
// rejected with 429 + Retry-After. SIGINT or SIGTERM drains gracefully:
// admission stops, in-flight solves get -drain-grace to finish, then are
// cancelled and answered indeterminate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"muppet/internal/buildinfo"
	"muppet/internal/faultinject"
	"muppet/internal/server"
	"muppet/internal/target"
	"muppet/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is the testable daemon body: parse flags, load state, serve until
// a signal, then drain. ready (optional) receives the bound address once
// the listener is up, so tests can use ":0" and discover the port.
func run(argv []string, ready func(addr string)) int {
	fs := flag.NewFlagSet("muppetd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var cfg server.Config
	fs.StringVar(&cfg.Files, "files", "", "comma-separated YAML files (single-tenant mode)")
	fs.StringVar(&cfg.K8sGoals, "k8s-goals", "", "K8s goals CSV")
	fs.StringVar(&cfg.IstioGoals, "istio-goals", "", "Istio goals CSV")
	fs.StringVar(&cfg.K8sOffer, "k8s-offer", "fixed", "K8s offer: fixed|soft|holes")
	fs.StringVar(&cfg.IstioOffer, "istio-offer", "soft", "Istio offer: fixed|soft|holes")
	fs.StringVar(&cfg.Ports, "ports", "", "extra ports, comma-separated")
	tenantDir := fs.String("tenant-dir", "", "directory of <id>/tenant.yaml manifests to serve as tenants")
	tenantRescan := fs.Duration("tenant-rescan", 0, "poll -tenant-dir for changes this often (0 = SIGHUP/admin only)")
	cacheBudgetMB := fs.Int("cache-budget-mb", 0, "idle warm-cache memory budget across all tenants, MiB (0 = unlimited)")
	routerPath := fs.String("router", "", "solver-pool router YAML (default: every op on one warm-cache pool)")
	addr := fs.String("addr", "127.0.0.1:8337", "listen address")
	concurrency := fs.Int("concurrency", 0, "solver workers (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue bound (0 = 2×concurrency)")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second,
		"cap on per-request deadlines, also the default budget (0 = unbounded)")
	drainGrace := fs.Duration("drain-grace", 5*time.Second,
		"how long in-flight solves may run after a shutdown signal before being cancelled")
	watchPoll := fs.Duration("watch-poll-timeout", server.DefaultWatchPollTimeout,
		"watch long-poll timeout before an empty 204 re-poll hint")
	watchMaxEvents := fs.Int("watch-max-events", 0,
		"cap on events per SSE watcher before its stream is closed (0 = unlimited)")
	strategy := fs.String("strategy", "auto", "minimal-edit distance search: auto|linear|binary")
	fedParty := fs.String("fed-party", "",
		"serve the federated negotiation peer protocol under /fed/ for this party: k8s|istio (requires -files)")
	faultSpec := fs.String("fault-spec", "",
		"chaos-testing fault injection, e.g. latency=50ms:0.3,error=0.1,unavail=0.05:2,drop=0.05,slow=0.1 (default off)")
	faultSeed := fs.Int64("fault-seed", 1, "deterministic seed for -fault-spec decisions")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this separate address, e.g. 127.0.0.1:6060 (default off)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(argv); err != nil {
		return server.CodeUsage
	}
	if *version {
		fmt.Println("muppetd", buildinfo.Version())
		return 0
	}
	if cfg.Files == "" && *tenantDir == "" {
		fmt.Fprintln(os.Stderr, "muppetd: -files or -tenant-dir is required")
		return server.CodeUsage
	}
	switch *fedParty {
	case "", "k8s", "istio":
	default:
		fmt.Fprintf(os.Stderr, "muppetd: bad -fed-party %q (want k8s or istio)\n", *fedParty)
		return server.CodeUsage
	}
	if *fedParty != "" && cfg.Files == "" {
		fmt.Fprintln(os.Stderr, "muppetd: -fed-party requires -files (the peer serves the default tenant)")
		return server.CodeUsage
	}
	faults, err := faultinject.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetd:", err)
		return server.CodeUsage
	}
	// The strategy is process-wide solver configuration, so it is a
	// daemon-startup knob, never a per-request one.
	st, ok := target.ParseStrategy(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "muppetd: bad -strategy %q (want auto|linear|binary)\n", *strategy)
		return server.CodeUsage
	}
	target.SetDefaultStrategy(st)

	router := tenant.DefaultRouter()
	if *routerPath != "" {
		var err error
		if router, err = tenant.LoadRouter(*routerPath); err != nil {
			fmt.Fprintln(os.Stderr, "muppetd:", err)
			return server.CodeInternal
		}
	}

	// Populate the registry: the -files bundle (if any) is the static
	// "default" tenant; -tenant-dir tenants are discovered and kept in
	// sync by rescans.
	reg := tenant.NewRegistry[*server.State](tenant.NewLedger(int64(*cacheBudgetMB) << 20))
	if cfg.Files != "" {
		if _, err := reg.Add(server.DefaultTenant, server.LoaderFromConfig(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "muppetd:", err)
			return server.CodeInternal
		}
	}
	if *tenantDir != "" {
		reg.SetDiscover(server.DirDiscover(*tenantDir))
		rep, err := reg.Rescan()
		if err != nil {
			fmt.Fprintln(os.Stderr, "muppetd:", err)
			return server.CodeInternal
		}
		for id, ferr := range rep.Failed {
			// A broken tenant at startup is fatal: better to refuse to start
			// than to silently serve a subset of the fleet.
			fmt.Fprintf(os.Stderr, "muppetd: tenant %s: %v\n", id, ferr)
			return server.CodeInternal
		}
		log.Printf("muppetd: loaded %d tenants from %s", len(rep.Added), *tenantDir)
	}
	if reg.Len() == 0 {
		fmt.Fprintf(os.Stderr, "muppetd: no tenants found in %s\n", *tenantDir)
		return server.CodeInternal
	}

	s := server.NewMulti(reg, server.Options{
		Concurrency:      *concurrency,
		QueueDepth:       *queueDepth,
		MaxTimeout:       *maxTimeout,
		Router:           router,
		FedParty:         *fedParty,
		WatchPollTimeout: *watchPoll,
		WatchMaxEvents:   *watchMaxEvents,
	})
	if *fedParty != "" {
		log.Printf("muppetd: serving federated peer protocol for party %s under /fed/", *fedParty)
	}
	var handler http.Handler = s
	if faults.Active() {
		log.Printf("muppetd: CHAOS: injecting faults (%s, seed %d)", faults, *faultSeed)
		handler = faults.Middleware(*faultSeed, s)
	}
	// The profiler gets its own listener and mux, never the serving one:
	// pprof handlers must stay off the request port so they can be bound
	// to loopback (or a firewalled port) independently of -addr.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "muppetd:", err)
			return server.CodeInternal
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("muppetd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, pmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("muppetd: pprof server: %v", err)
			}
		}()
		defer pln.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetd:", err)
		return server.CodeInternal
	}
	log.Printf("muppetd %s serving %d tenants on http://%s", buildinfo.Version(), reg.Len(), ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Rescan triggers: SIGHUP always; a -tenant-rescan ticker optionally.
	// Rescans are serialized inside the registry, so overlapping triggers
	// simply coalesce.
	rescan := func(reason string) {
		rep, err := reg.Rescan()
		if err != nil {
			log.Printf("muppetd: rescan (%s): %v", reason, err)
			return
		}
		if len(rep.Added)+len(rep.Reloaded)+len(rep.Removed)+len(rep.Failed) > 0 {
			log.Printf("muppetd: rescan (%s): added=%v reloaded=%v removed=%v failed=%d",
				reason, rep.Added, rep.Reloaded, rep.Removed, len(rep.Failed))
			for id, ferr := range rep.Failed {
				log.Printf("muppetd: tenant %s: %v", id, ferr)
			}
		}
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	rescanDone := make(chan struct{})
	go func() {
		defer close(rescanDone)
		var tick <-chan time.Time
		if *tenantRescan > 0 {
			ticker := time.NewTicker(*tenantRescan)
			defer ticker.Stop()
			tick = ticker.C
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				rescan("SIGHUP")
			case <-tick:
				rescan("poll")
			}
		}
	}()

	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "muppetd:", err)
		return server.CodeInternal
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	<-rescanDone

	log.Printf("muppetd: draining (grace %v)", *drainGrace)
	s.Drain()
	// After the grace period, cancel in-flight solves: they finish
	// immediately with structured indeterminate responses, so Shutdown
	// below completes without tearing any response mid-write.
	hammer := time.AfterFunc(*drainGrace, s.CancelSolves)
	defer hammer.Stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("muppetd: forced shutdown: %v", err)
		hs.Close()
	}
	s.Close()
	log.Printf("muppetd: drained")
	return 0
}
