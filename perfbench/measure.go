package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process counters a pass is
// charged with: CPU time, heap allocation and garbage collection.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds
	gcCycles   uint64
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u.allocBytes = s[0].Value.Uint64()
	u.gcCPU = s[1].Value.Float64()
	u.gcCycles = s[2].Value.Uint64()
	return u
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:        u.cpu - v.cpu,
		allocBytes: u.allocBytes - v.allocBytes,
		gcCPU:      u.gcCPU - v.gcCPU,
		gcCycles:   u.gcCycles - v.gcCycles,
	}
}

// monitor polls the process while a pass runs: the resident set size
// every 10 ms, for its peak (the process-lifetime peak from getrusage
// would report the set-up's peak instead of the pass's), and the CPU time
// every second, for per-window rates.
type monitor struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
	cpu  []cpuReading
}

type cpuReading struct {
	at  time.Time
	cpu time.Duration
}

func startMonitor() *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sampleRSS()
	m.sampleCPU()
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sampleRSS()
				if tick%100 == 0 {
					m.sampleCPU()
				}
			}
		}
	}()
	return m
}

func (m *monitor) sampleCPU() {
	r := cpuReading{at: time.Now(), cpu: readUsage().cpu}
	m.mu.Lock()
	m.cpu = append(m.cpu, r)
	m.mu.Unlock()
}

func (m *monitor) sampleRSS() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * uint64(os.Getpagesize())
	m.mu.Lock()
	if rss > m.peak {
		m.peak = rss
	}
	m.mu.Unlock()
}

// finish stops the monitor, waits for it, and returns the peak RSS in
// bytes and the CPU readings.
func (m *monitor) finish() (uint64, []cpuReading) {
	m.sampleRSS()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak, m.cpu
}

// settle returns the heap to a clean state before a measured pass, so
// garbage and retained pages from set-up are not charged to it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
