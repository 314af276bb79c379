package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"muppet/internal/feder"
	"muppet/internal/server"
)

// clientExecute routes one mediation request through a running muppetd
// at addr — to /v1/{op} by default, or /t/{tenant}/{op} when -tenant
// names one of the daemon's bundles — and prints its verdict, which is
// byte-identical to the local one (both render through server.Exec).
// Budgets travel as headers; the solver-configuration flags are
// daemon-side startup knobs, so using them together with -addr is an
// error rather than a silent no-op.
//
// Retryable failures — 429 admission pushback, 503 drain, connection
// errors — are retried up to retries times with exponential backoff and
// jitter, honouring the daemon's Retry-After and capped by the request
// deadline. Every mediation op is a safe retry: reads are pure, and the
// daemon builds fresh parties per request.
func clientExecute(ctx context.Context, addr, tenantID string, lim *limits, strategy string, retries int, req server.Request) error {
	if strategy != "" && strategy != "auto" {
		return fmt.Errorf("-strategy is a daemon-side setting; start muppetd with it instead of combining it with -addr")
	}
	if lim.verbose {
		return fmt.Errorf("-v statistics live on the daemon; scrape its /metrics endpoint instead of combining -v with -addr")
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	path := "/v1/" + req.Op
	if tenantID != "" {
		path = "/t/" + tenantID + "/" + req.Op
	}
	url := strings.TrimSuffix(base, "/") + path
	// The transport deadline must outlast the solve budget; with no budget
	// the request waits as long as the daemon does.
	client := &http.Client{}
	if lim.timeout > 0 {
		client.Timeout = lim.timeout + 30*time.Second
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		var hint time.Duration
		done, err := clientAttempt(ctx, client, url, body, lim, &hint)
		if done {
			return err
		}
		lastErr = err
		if attempt >= retries {
			return lastErr
		}
		delay := feder.BackoffDelay(attempt, 50*time.Millisecond, 2*time.Second, rand.Float64)
		if hint > delay {
			delay = hint
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return lastErr // the deadline caps the retry budget
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(delay):
		}
	}
}

// clientAttempt makes one request. done=false means the failure is
// retryable (429, 503, connection error); hint carries the daemon's
// Retry-After when it sent one.
func clientAttempt(ctx context.Context, client *http.Client, url string, body []byte, lim *limits, hint *time.Duration) (done bool, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return true, err
	}
	hr.Header.Set("Content-Type", "application/json")
	headerTimeout(hr, lim)
	res, err := client.Do(hr)
	if err != nil {
		if ctx.Err() != nil {
			return true, err // cancelled or past deadline: do not retry
		}
		return false, err
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusOK:
		var out server.Response
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			return true, fmt.Errorf("bad daemon response: %v", err)
		}
		fmt.Print(out.Output)
		if out.Code != exitSat {
			return true, statusErr(out.Code)
		}
		return true, nil
	case http.StatusTooManyRequests:
		if ra, ok := feder.RetryAfter(res.Header); ok {
			*hint = ra
		}
		return false, fmt.Errorf("daemon overloaded (retry after %ss)", res.Header.Get("Retry-After"))
	case http.StatusServiceUnavailable:
		if ra, ok := feder.RetryAfter(res.Header); ok {
			*hint = ra
		}
		return false, fmt.Errorf("daemon is draining")
	default:
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
		err := fmt.Errorf("daemon: %s: %s", res.Status, strings.TrimSpace(string(msg)))
		if res.StatusCode == http.StatusBadRequest {
			return true, fmt.Errorf("%w: %v", server.ErrUsage, err)
		}
		return true, err
	}
}

// headerTimeout applies the budget headers to one outbound request.
func headerTimeout(hr *http.Request, lim *limits) {
	if lim.timeout > 0 {
		hr.Header.Set(server.HeaderTimeout, lim.timeout.String())
	}
	if lim.maxConflicts > 0 {
		hr.Header.Set(server.HeaderMaxConflicts, strconv.FormatInt(lim.maxConflicts, 10))
	}
}
