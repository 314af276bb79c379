package main

import (
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (sorts xs in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler records the peak resident set size while it runs. Reading
// /proc/self/statm every few milliseconds keeps the peak local to the
// timed phase, which VmHWM (peak since process start) would not.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

var pageSize = int64(os.Getpagesize())

func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * pageSize
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rssBytes()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak = max(s.peak, rssBytes())
				return
			case <-t.C:
				s.peak = max(s.peak, rssBytes())
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// cpuSample is the machine-wide CPU time from /proc/stat, in ticks.
type cpuSample struct{ steal, total int64 }

func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return cpuSample{}
	}
	var c cpuSample
	for i, x := range f[1:] {
		n, _ := strconv.ParseInt(x, 10, 64)
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			c.steal = n
		}
		if i < 8 {
			c.total += n
		}
	}
	return c
}

// stealShare is the share of CPU time stolen by the host since a, or -1
// when /proc/stat could not be read.
func (b cpuSample) stealShare(a cpuSample) float64 {
	if b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// goSample reads the runtime counters the Go-runtime layer reports.
type goSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readGo() goSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return goSample{val(ss[0]), val(ss[1]), val(ss[2])}
}

// latencies collects per-operation latencies from several goroutines.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.xs = append(l.xs, ms(d))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}
