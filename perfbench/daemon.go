package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"muppet"
	"muppet/internal/server"
	"muppet/internal/tenant"
)

// clients is the number of closed-loop HTTP clients: one per CPU of the
// two-CPU machines the benchmark is sized for, each waiting for its
// verdict before sending again, as a party's tooling does.
const clients = 2

// daemon is a muppetd equivalent on a loopback listener: the tenants of
// a directory in a registry, served by server.NewMulti with default
// options.
type daemon struct {
	reg  *tenant.Registry[*server.State]
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(dir string, ids []string) (*daemon, error) {
	reg := tenant.NewRegistry[*server.State](tenant.NewLedger(0))
	for _, id := range ids {
		if _, err := reg.Add(id, server.ManifestLoader(filepath.Join(dir, id, fileManifest))); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{reg: reg, srv: server.NewMulti(reg, server.Options{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	d.http = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains watchers, closes the listener and waits for every worker.
func (d *daemon) stop() {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.srv.Close()
}

// prime checks out two caches of every tenant (one per daemon worker)
// and runs every op on both, in parallel, so the timed phase starts fully
// warm. Every warm answer must equal its cold reference.
func (d *daemon) prime(ids []string, ops []string, want func(id, op string) server.Response) error {
	for _, id := range ids {
		ent, ok := d.reg.Get(id)
		if !ok {
			return fmt.Errorf("no tenant %s", id)
		}
		caches := make([]*muppet.SolveCache, clients)
		for w := range caches {
			caches[w] = ent.Pool.Checkout()
		}
		err := parallel(clients, func(w int) error {
			for _, op := range ops {
				resp, err := server.Exec(context.Background(), ent.State, caches[w], server.Request{Op: op}, muppet.Budget{})
				if err != nil {
					return err
				}
				if resp != want(id, op) {
					return fmt.Errorf("warm %s/%s differs from its cold reference", id, op)
				}
			}
			return nil
		})
		for _, c := range caches {
			ent.Pool.Checkin(c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}

var errRejected = errors.New("rejected (429)")

// post sends one workflow request and decodes the verdict.
func (d *daemon) post(ctx context.Context, id, op string) (server.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/t/"+id+"/"+op, strings.NewReader("{}"))
	if err != nil {
		return server.Response{}, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return server.Response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.Response{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return server.Response{}, errRejected
	}
	if resp.StatusCode != http.StatusOK {
		return server.Response{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out server.Response
	err = json.Unmarshal(body, &out)
	return out, err
}

// reload asks the daemon to re-read a tenant's files.
func (d *daemon) reload(id string) (server.ReloadReply, error) {
	var out server.ReloadReply
	resp, err := httpClient.Post(d.url+"/tenants/"+id+"/reload", "application/json", nil)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("reload: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// watchStream is an open SSE subscription to one (tenant, op).
type watchStream struct {
	cancel context.CancelFunc
	body   io.ReadCloser
	sc     *bufio.Scanner
}

func (d *daemon) watch(id, op string) (*watchStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/t/"+id+"/watch/"+op+"?stream=1", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	return &watchStream{cancel: cancel, body: resp.Body, sc: sc}, nil
}

// next blocks for the next update event.
func (w *watchStream) next() (*server.WatchEvent, error) {
	for w.sc.Scan() {
		data, ok := strings.CutPrefix(w.sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.WatchEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, err
		}
		if ev.Terminal {
			return nil, fmt.Errorf("watch ended: %s", ev.Reason)
		}
		return &ev, nil
	}
	if err := w.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (w *watchStream) close() {
	w.cancel()
	w.body.Close()
}
