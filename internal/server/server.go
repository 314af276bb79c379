package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/feder"
	"muppet/internal/tenant"
)

// DefaultTenant is the tenant ID a single-bundle daemon serves under,
// and the tenant /v1/ requests implicitly address. Single-bundle startup
// is just the degenerate one-tenant registry.
const DefaultTenant = "default"

// Options tunes the serving machinery.
type Options struct {
	// Concurrency is the number of solver workers (0 = GOMAXPROCS).
	Concurrency int
	// QueueDepth bounds the admission queue beyond the in-flight jobs
	// (0 = 2×Concurrency). Overflow is rejected with 429.
	QueueDepth int
	// MaxTimeout caps per-request deadlines and is the default when a
	// request names none (0 = no cap, no default).
	MaxTimeout time.Duration
	// CacheBudgetBytes bounds the idle warm-cache memory across all
	// tenants (0 = unlimited); see tenant.Ledger. Only read by New —
	// NewMulti callers size the ledger themselves.
	CacheBudgetBytes int64
	// Router maps workflow methods to solver pools (nil = every method on
	// one warm-cache pool, the pre-routing behaviour).
	Router *tenant.Router
	// FedParty, when "k8s" or "istio", mounts the federated negotiation
	// peer protocol under /fed/, serving that side of the default
	// tenant's bundle to a remote coordinator ("" = not a peer).
	FedParty string
	// WatchPollTimeout bounds a watch long-poll with no event before the
	// 204 re-poll hint (0 = DefaultWatchPollTimeout).
	WatchPollTimeout time.Duration
	// WatchMaxEvents caps events per SSE watcher before the stream is
	// closed with a terminal budget event (0 = unlimited).
	WatchMaxEvents int
}

// Server is the mediation daemon's HTTP surface: the workflow endpoints
// under /v1/ (default tenant) and /t/{tenant}/, health and readiness
// probes, /metrics, and the /tenants admin surface. It is an
// http.Handler; lifecycle is driven from outside via Drain,
// CancelSolves, and Close (see cmd/muppetd for the signal wiring).
//
// Solving state lives in a tenant.Registry: each tenant's immutable
// State plus a pool of warm SolveCaches under the registry ledger's
// global memory budget. Workers are stateless — a request checks a cache
// out of its tenant's pool for the duration of a solve — so hot tenants
// naturally occupy more of the budget and a hot reload swaps a tenant
// without touching its neighbours.
type Server struct {
	registry *tenant.Registry[*State]
	router   *tenant.Router
	opts     Options
	pool     *pool
	metrics  *metrics
	mux      *http.ServeMux
	watch    *watchHub

	draining     chan struct{} // closed by Drain
	drainOnce    sync.Once
	solveCtx     context.Context // cancelled by CancelSolves
	cancelSolves context.CancelFunc

	// execFn runs one request against one tenant state on one cache (nil
	// cache = one-shot workspaces) — a seam tests override to simulate
	// slow solves without burning CPU.
	execFn func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error)
}

// New builds a single-tenant Server over the loaded state: a registry
// holding one "default" tenant whose pools share opts.CacheBudgetBytes.
func New(st *State, opts Options) *Server {
	reg := tenant.NewRegistry[*State](tenant.NewLedger(opts.CacheBudgetBytes))
	// The loader closes over an already-validated state and cannot fail.
	if _, err := reg.Add(DefaultTenant, func() (*State, string, error) { return st, "", nil }); err != nil {
		panic(err)
	}
	return NewMulti(reg, opts)
}

// NewMulti builds a Server over a populated tenant registry and starts
// its worker pool.
func NewMulti(reg *tenant.Registry[*State], opts Options) *Server {
	if opts.Concurrency <= 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Concurrency
	}
	if opts.Router == nil {
		opts.Router = tenant.DefaultRouter()
	}
	s := &Server{
		registry: reg,
		router:   opts.Router,
		opts:     opts,
		metrics:  newMetrics(),
		draining: make(chan struct{}),
	}
	s.solveCtx, s.cancelSolves = context.WithCancel(context.Background())
	// The daemon always executes through the federation-aware path: local
	// requests are untouched, and a negotiate naming Peers makes this
	// daemon the coordinator, with robustness counters wired to /metrics.
	s.execFn = func(ctx context.Context, st *State, cache *muppet.SolveCache, req Request, b muppet.Budget) (Response, error) {
		return ExecFed(ctx, st, cache, req, b, &FedOptions{
			OnRound:   func() { s.metrics.fedRound("coordinator") },
			OnRetry:   func(peer string) { s.metrics.fedRetry(peer) },
			OnBreaker: func(peer string, bs feder.BreakerState) { s.metrics.fedBreaker(peer, bs) },
		})
	}
	s.pool = newPool(opts.Concurrency, opts.QueueDepth, s.runJob)
	s.watch = newWatchHub(s)
	// Watch mode rides the registry's swap notifications: every hot
	// reload (SIGHUP, rescan, admin) becomes one delta re-reconcile and
	// one event per watched op.
	reg.SetOnSwap(s.watch.onSwap)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/", s.handleOp)
	s.mux.HandleFunc("/t/", s.handleTenantOp)
	s.mux.HandleFunc("/tenants", s.handleTenants)
	s.mux.HandleFunc("/tenants/", s.handleTenantAdmin)
	if opts.FedParty != "" {
		if ent, ok := reg.Get(DefaultTenant); ok {
			// The peer serves the default tenant's bundle. Its vocabulary is
			// pinned at startup; a session opened after a hot reload picks up
			// the new party state via the constructor closure.
			peer := feder.NewPeer(ent.State.Sys, func() (*feder.LocalParty, error) {
				ent, ok := s.registry.Get(DefaultTenant)
				if !ok {
					return nil, fmt.Errorf("no default tenant")
				}
				return ent.State.FedParty(opts.FedParty)
			}, feder.PeerHooks{
				OnRound:  func() { s.metrics.fedRound("peer") },
				OnReplay: func() { s.metrics.fedReplay() },
			})
			s.mux.Handle("/fed/", peer.Handler())
		}
	}
	return s
}

// Registry exposes the tenant registry so the daemon can wire rescan
// triggers (SIGHUP, polling) to it.
func (s *Server) Registry() *tenant.Registry[*State] { return s.registry }

// ErrPanic marks a worker panic caught by the recovery middleware: the
// request failed, the daemon survived. The HTTP layer maps it to a
// structured 500; /metrics counts it under muppetd_panics_total.
var ErrPanic = errors.New("internal panic")

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			// Deliberate connection abort (e.g. fault injection); let
			// net/http handle it.
			panic(p)
		}
		s.metrics.panic()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]any{
			"error": fmt.Sprintf("internal panic: %v", p),
			"code":  CodeInternal,
		})
	}()
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting work: /readyz flips to 503 and new workflow
// requests are refused, while in-flight and queued jobs keep running.
// Watchers get a terminal drain event and their streams close.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.watch.shutdown()
	})
}

// CancelSolves cancels every in-flight and future solve — the drain
// grace timer's hammer. Interrupted solves surface as structured
// indeterminate responses, never torn ones.
func (s *Server) CancelSolves() { s.cancelSolves() }

// Close drains the queue and waits for the workers to exit. Call after
// the HTTP listener has stopped accepting.
func (s *Server) Close() {
	s.Drain()
	s.pool.close()
	<-s.watch.done
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// runJob executes one dequeued job through the solver-pool router. The
// deadline clock starts here — queue wait does not consume solve budget —
// and the solve context is the request context merged with the
// server-wide cancel, so either a vanished client or a drain hammer
// stops it. The job's tenant entry was captured at admission: a hot
// reload between admission and here means this request completes on the
// revision it was admitted against.
func (s *Server) runJob(ctx context.Context, w int, j *job) (resp Response, err error) {
	// A solver panic must kill the request, not the worker: recover into a
	// typed error the HTTP layer renders as a structured 500.
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panic()
			resp, err = Response{}, fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	timeout := j.timeout
	if s.opts.MaxTimeout > 0 && (timeout <= 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.solveCtx, cancel)
	defer stop()
	if timeout > 0 {
		var cancelDL context.CancelFunc
		ctx, cancelDL = context.WithDeadline(ctx, time.Now().Add(timeout))
		defer cancelDL()
	}

	plan := s.router.PlanFor(j.req.Op)
	resp, attempts, err := tenant.RunPlan(ctx, plan,
		func(ctx context.Context, leaf tenant.Leaf) (Response, error) {
			// The leaf context carries the tightest of the request deadline
			// and the routing plan's per-pool timeouts; the solver budget
			// must match it so the solver stops when the context does.
			b := muppet.Budget{MaxConflicts: j.maxConflicts}
			if dl, ok := ctx.Deadline(); ok {
				b.Deadline = dl
			}
			if leaf.Kind == tenant.PoolWarm {
				c := j.ent.Pool.Checkout()
				defer j.ent.Pool.Checkin(c)
				return s.execFn(ctx, j.ent.State, c, j.req, b)
			}
			// Fresh pool: nil cache means one-shot workspaces, exactly the
			// cold CLI path.
			return s.execFn(ctx, j.ent.State, nil, j.req, b)
		},
		func(r Response) bool { return r.Code != CodeIndeterminate })
	for _, at := range attempts {
		s.metrics.attempt(at.Pool, string(at.Kind), at.Decisive, at.Err != nil)
	}
	return resp, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.scrape())
}

// scrape assembles the instantaneous state /metrics reports alongside
// the counters: queue, registry, and ledger. Pool stats are checkin-time
// snapshots, so this never touches a live single-goroutine SolveCache.
func (s *Server) scrape() scrape {
	sc := scrape{
		queueDepth: s.pool.depth(),
		queueCap:   s.pool.capacity(),
		workers:    s.opts.Concurrency,
	}
	sc.watchers = atomic.LoadInt64(&s.watch.watchers)
	sc.watchEvents = atomic.LoadInt64(&s.watch.events)
	ledger := s.registry.Ledger()
	sc.budgetBytes = ledger.Budget()
	sc.idleBytes = ledger.TotalBytes()
	sc.ledgerEvictions = ledger.Evictions()
	for _, ent := range s.registry.Entries() {
		ps := ent.Pool.Stats()
		sc.tenants = append(sc.tenants, tenantScrape{
			ID: ent.ID, Revision: ent.Revision, Reloads: s.registry.Reloads(ent.ID), Pool: ps,
		})
		sc.reuse.Add(ps.Reuse)
	}
	return sc
}

// Budget headers. The timeout is a Go duration string; the conflict cap
// a decimal integer. Absent headers mean "server defaults" (MaxTimeout).
const (
	HeaderTimeout      = "X-Muppet-Timeout"
	HeaderMaxConflicts = "X-Muppet-Max-Conflicts"
)

// handleOp serves /v1/{op} against the default tenant — the original
// single-bundle surface — plus /v1/watch/{op} for watch mode.
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/v1/")
	if wop, ok := strings.CutPrefix(op, "watch/"); ok {
		s.serveWatch(w, r, DefaultTenant, wop)
		return
	}
	s.serveOp(w, r, DefaultTenant, op)
}

// handleTenantOp serves /t/{tenant}/{op} and /t/{tenant}/watch/{op}.
func (s *Server) handleTenantOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/t/")
	id, op, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		http.Error(w, "want /t/{tenant}/{op}", http.StatusNotFound)
		return
	}
	if wop, ok := strings.CutPrefix(op, "watch/"); ok {
		s.serveWatch(w, r, id, wop)
		return
	}
	s.serveOp(w, r, id, op)
}

func (s *Server) serveOp(w http.ResponseWriter, r *http.Request, tenantID, op string) {
	known := false
	for _, o := range Ops() {
		if o == op {
			known = true
			break
		}
	}
	if !known {
		http.Error(w, fmt.Sprintf("unknown op %q", op), http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Capture the tenant's current revision now: the job holds it to
	// completion, so a reload mid-request never tears the answer.
	ent, ok := s.registry.Get(tenantID)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tenant %q", tenantID), http.StatusNotFound)
		return
	}
	var req Request
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	req.Op = op

	var timeout time.Duration
	if h := r.Header.Get(HeaderTimeout); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d < 0 {
			http.Error(w, "bad "+HeaderTimeout+" header", http.StatusBadRequest)
			return
		}
		timeout = d
	}
	var maxConflicts int64
	if h := r.Header.Get(HeaderMaxConflicts); h != "" {
		n, err := strconv.ParseInt(h, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad "+HeaderMaxConflicts+" header", http.StatusBadRequest)
			return
		}
		maxConflicts = n
	}

	start := time.Now()
	j := &job{
		ctx:          r.Context(),
		ent:          ent,
		req:          req,
		timeout:      timeout,
		maxConflicts: maxConflicts,
		done:         make(chan jobResult, 1),
	}
	if !s.pool.admit(j) {
		s.metrics.reject()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
		return
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			if errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded) {
				s.metrics.drop()
				return // client is gone; nothing to write
			}
			if errors.Is(res.err, ErrPanic) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]any{"error": res.err.Error(), "code": CodeInternal})
				return
			}
			code := http.StatusInternalServerError
			if errors.Is(res.err, ErrUsage) {
				code = http.StatusBadRequest
			}
			http.Error(w, res.err.Error(), code)
			return
		}
		s.metrics.observe(ent.ID, op, res.resp.Code, time.Since(start).Seconds())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res.resp)
	case <-r.Context().Done():
		// The client hung up; the worker (or the queue scan) will notice
		// via the job context and discard the result.
		s.metrics.drop()
	}
}
