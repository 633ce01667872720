package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// The Go runtime is the layer under every other one. Its counters are
// read as deltas over the traced repetitions; heap and goroutine peaks
// are sampled at 10 Hz because the runtime keeps no high-water marks.

const (
	mSchedLat  = "/sched/latencies:seconds"
	mMutexWait = "/sync/mutex/wait/total:seconds"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	mHeapLive  = "/memory/classes/heap/objects:bytes"
	mAllocs    = "/gc/heap/allocs:objects"
	mAllocB    = "/gc/heap/allocs:bytes"
)

var runtimeSampleNames = []string{mSchedLat, mMutexWait, mGCCPU, mGCCycles, mGCPauses, mAllocs, mAllocB}

func readRuntime() map[string]metrics.Value {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]metrics.Value, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

// runtimeWatch covers one traced region.
type runtimeWatch struct {
	before   map[string]metrics.Value
	stop     chan struct{}
	done     sync.WaitGroup
	heapPeak uint64
	goroPeak int
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{})}
	w.before = readRuntime()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		heap := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 {
				w.heapPeak = max(w.heapPeak, heap[0].Value.Uint64())
			}
			w.goroPeak = max(w.goroPeak, runtime.NumGoroutine())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops sampling and returns the runtime.* metrics for a region
// that settled units compute units.
func (w *runtimeWatch) finish(units int) map[string]float64 {
	close(w.stop)
	w.done.Wait()
	after := readRuntime()
	f := func(name string) float64 {
		a, b := after[name], w.before[name]
		switch a.Kind() {
		case metrics.KindUint64:
			return float64(a.Uint64() - b.Uint64())
		case metrics.KindFloat64:
			return a.Float64() - b.Float64()
		}
		return 0
	}
	n := float64(max(units, 1))
	pauses, _ := histDelta(after[mGCPauses], w.before[mGCPauses])
	_, schedP99 := histDelta(after[mSchedLat], w.before[mSchedLat])
	return map[string]float64{
		"runtime.allocs_per_unit":      f(mAllocs) / n,
		"runtime.bytes_per_unit":       f(mAllocB) / n,
		"runtime.gc_cycles":            f(mGCCycles),
		"runtime.gc_pause_ms":          pauses * 1000,
		"runtime.gc_cpu_s":             f(mGCCPU),
		"runtime.heap_peak_mb":         float64(w.heapPeak) / (1 << 20),
		"runtime.goroutines_peak":      float64(w.goroPeak),
		"runtime.sched_latency_us_p99": schedP99 * 1e6,
		"runtime.mutex_wait_s":         f(mMutexWait),
	}
}

// histDelta returns the (approximate, bucket-midpoint) sum and the 99th
// percentile of the observations a runtime histogram gained between
// two reads.
func histDelta(after, before metrics.Value) (sum, p99 float64) {
	if after.Kind() != metrics.KindFloat64Histogram || before.Kind() != metrics.KindFloat64Histogram {
		return 0, 0
	}
	a, b := after.Float64Histogram(), before.Float64Histogram()
	if len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	counts := make([]uint64, len(a.Counts))
	var total uint64
	for i := range counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	// Bucket i spans Buckets[i]..Buckets[i+1]; the outermost bounds may be infinite.
	bound := func(i int) float64 {
		x := a.Buckets[i]
		if math.IsInf(x, -1) {
			return a.Buckets[i+1]
		}
		if math.IsInf(x, 1) {
			return a.Buckets[i-1]
		}
		return x
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo, hi := bound(i), bound(i+1)
		sum += float64(c) * (lo + hi) / 2
		if seen < target && seen+c >= target {
			p99 = hi
		}
		seen += c
	}
	return sum, p99
}
