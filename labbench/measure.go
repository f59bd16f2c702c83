package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metrics the benchmark reads.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mLiveHeap     = "/gc/heap/live:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mGCPauses     = "/sched/pauses/total/gc:seconds"
)

// readUint64 reads one cumulative uint64 runtime metric.
func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocCounter reads cumulative heap bytes and objects allocated.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}}}
}

// read returns the cumulative bytes and objects allocated so far.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch records the largest live heap seen at the end of any GC cycle
// while it is armed. It learns of each cycle from a finalizer on a sentinel
// object that re-arms itself, so it costs nothing between cycles.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped atomic.Bool
}

// sentinel is large enough to stay out of the tiny allocator, whose objects
// may never be finalized.
type sentinel struct{ _ [4]*int }

// watchHeap arms a watcher.
func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if w.stopped.Load() {
			return
		}
		w.sample()
		w.arm()
	})
}

func (w *heapWatch) sample() {
	v := readUint64(mLiveHeap)
	w.mu.Lock()
	w.peak = max(w.peak, v)
	w.mu.Unlock()
}

// stop forces one last cycle so the heap live at the end of the measured
// work counts, disarms the watcher and returns the peak.
func (w *heapWatch) stop() uint64 {
	runtime.GC()
	w.sample()
	w.stopped.Store(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// gcStats is the runtime's cumulative GC accounting at one instant.
type gcStats struct {
	cycles      uint64
	gcCPU, cpu  float64
	pauseCounts []uint64
	pauseBounds []float64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPauses}}
	metrics.Read(s)
	g := gcStats{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		g.pauseCounts = append([]uint64(nil), h.Counts...)
		g.pauseBounds = h.Buckets
	}
	return g
}

// gcDelta is the GC work between two readings.
type gcDelta struct {
	cycles uint64
	// cpuFrac is GC CPU time over all CPU time the runtime accounted.
	cpuFrac float64
	// pauses holds one value per pause: the upper bound of its histogram
	// bucket, in seconds.
	pauses []float64
}

func diffGC(a, b gcStats) gcDelta {
	d := gcDelta{cycles: b.cycles - a.cycles}
	if cpu := b.cpu - a.cpu; cpu > 0 {
		d.cpuFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	for i := range b.pauseCounts {
		n := b.pauseCounts[i]
		if i < len(a.pauseCounts) {
			n -= a.pauseCounts[i]
		}
		// A pause counts at its bucket's upper bound, or its lower bound
		// in the open-ended last bucket.
		v := b.pauseBounds[i+1]
		if math.IsInf(v, 1) {
			v = b.pauseBounds[i]
		}
		for ; n > 0; n-- {
			d.pauses = append(d.pauses, v)
		}
	}
	return d
}

// hostNow reads the host clock: the benchmark measures host time, and no
// simulated result depends on it.
func hostNow() time.Time {
	return time.Now() //faultlint:ignore wallclock the benchmark measures host time; no simulated result depends on it
}

// hostSince is the host time elapsed since t.
func hostSince(t time.Time) time.Duration {
	return time.Since(t) //faultlint:ignore wallclock the benchmark measures host time; no simulated result depends on it
}
