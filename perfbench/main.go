// Command perfbench is the repository benchmark: four seeded workloads
// that drive the mediator through its real entry points — the CLI's
// local path (server.Load from files, then server.Exec with no cache)
// and the daemon over loopback HTTP (server.NewMulti on a
// tenant.Registry) — and verify every answer against a reference checked
// by an independent oracle. See README.md for why each workload exists
// and which layer metric should move which end-to-end metric.
//
//	perfbench --workload oneshot-sparse --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer metrics of a
// separate traced run. Earlier lines are a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what every workload returns.
type Result struct {
	Attempted, Failed int
	Correct           bool
	Metrics           map[string]Metric // printed in the JSON line
	Notes             []string          // extra report lines
}

func (r *Result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fail counts one failed operation and clears Correct: a wrong answer, a
// transport error, a non-200 response or a rejection all mean the run
// did not serve every query correctly.
func (r *Result) fail(err error, format string, args ...any) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 20 {
		r.note("FAIL "+format+": %v", append(args, err)...)
	}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Options are one invocation's settings.
type Options struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Work    string // scratch directory inside the checkout
}

// repeatSetup runs a workload's whole set-up at least three times and
// until three seconds have been spent (at most 200 times), tearing down
// all but the last, and returns the median time, setup_s, and the
// repetitions. A short set-up thus gets many samples; the median damps
// the first-time costs of a fresh process and file-system noise.
func repeatSetup(setup func() (teardown func(), err error)) (float64, int, error) {
	var times []float64
	var spent time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		if len(times) >= 3 && (spent >= 3*time.Second || len(times) >= 200) {
			return quantile(times, 0.5), len(times), nil
		}
		teardown()
	}
}

var workloads = map[string]func(Options) (*Result, error){
	"oneshot-sparse": func(o Options) (*Result, error) { return runOneshot(o, sparseWorkload(o.Seed)) },
	"oneshot-dense":  func(o Options) (*Result, error) { return runOneshot(o, denseWorkload(o.Seed)) },
	"serve-warm":     runServeWarm,
	"revise-watch":   runReviseWatch,
}

func main() {
	name := flag.String("workload", "", "workload: oneshot-sparse|oneshot-dense|serve-warm|revise-watch")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	// A run that hangs (a lost watch event, a stuck solve) must still end
	// well inside the three minutes a run is allowed, without a result.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(1)
	})
	work, err := os.MkdirTemp(".", ".perfbench-work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	abs, _ := filepath.Abs(work)
	cpu0 := readCPU()
	res, err := run(Options{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1, Work: abs})
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// On a shared virtual machine, time the host gives to other guests
	// slows every figure of a run; the share is printed so such runs can
	// be told apart.
	if st := readCPU().stealShare(cpu0); st >= 0 {
		res.note("host steal %.1f%% of CPU time during the run", 100*st)
	}
	fmt.Printf("workload %s seed %d trace %d: %d attempted, %d failed, correct %v\n",
		*name, *seed, *trace, res.Attempted, res.Failed, res.Correct)
	if res.Attempted > 0 {
		fmt.Printf("  error_ratio %.6f (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
