package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// usage is what one measured interval cost the process.
type usage struct {
	wall     time.Duration
	cpu      time.Duration // user + system, whole process
	gcCPU    float64       // GC CPU-seconds as estimated by the runtime
	totalCPU float64       // all CPU-seconds as estimated by the runtime
	allocB   uint64        // heap bytes allocated
	mallocs  uint64        // heap objects allocated
	peakLive uint64        // highest live heap observed after a GC
}

// meter samples the runtime over one interval: CPU from getrusage,
// allocation totals and GC CPU from runtime/metrics, and the live heap
// after each GC from a sampler goroutine.
type meter struct {
	start    time.Time
	cpu0     time.Duration
	s0       []metrics.Sample
	peakLive uint64
	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{}
}

var meterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(meterNames))
	for i, n := range meterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter collects garbage first, so every interval starts from the
// same heap state, and then begins sampling.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	m.s0 = readSamples()
	m.peakLive = uint64(sampleValue(m.s0[4]))
	m.cpu0 = processCPU()
	m.start = time.Now()
	go m.sample()
	return m
}

func (m *meter) sample() {
	defer close(m.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tk := time.NewTicker(2 * time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tk.C:
			metrics.Read(s)
			m.observe(s[0].Value.Uint64())
		}
	}
}

func (m *meter) observe(live uint64) {
	m.mu.Lock()
	if live > m.peakLive {
		m.peakLive = live
	}
	m.mu.Unlock()
}

// end stops the sampler and returns the interval's usage.
func (m *meter) end() usage {
	wall := time.Since(m.start)
	cpu := processCPU() - m.cpu0
	s1 := readSamples()
	close(m.stop)
	<-m.done
	m.observe(uint64(sampleValue(s1[4])))
	return usage{
		wall:     wall,
		cpu:      cpu,
		allocB:   uint64(sampleValue(s1[0]) - sampleValue(m.s0[0])),
		mallocs:  uint64(sampleValue(s1[1]) - sampleValue(m.s0[1])),
		gcCPU:    sampleValue(s1[2]) - sampleValue(m.s0[2]),
		totalCPU: sampleValue(s1[3]) - sampleValue(m.s0[3]),
		peakLive: m.peakLive,
	}
}

// median returns the middle value (mean of the two middle ones for an
// even count); NaN when empty.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
