package main

import (
	"math"
	runtimemetrics "runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// heapSampler tracks the peak Go heap in use (object bytes plus the unused
// tail of in-use spans) by polling runtime/metrics, which does not stop the
// world, from its own goroutine until Stop.  It keeps the peak of every
// window: a single run-wide maximum rests on whichever collection happened
// to start latest, while the median of the window peaks is the heap's
// steady high-water mark.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64 // MiB, one per whole window
	last  float64   // MiB, the peak of the part-window at Stop
}

var heapSamples = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func readHeapInUse(s []runtimemetrics.Sample) float64 {
	runtimemetrics.Read(s)
	return float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := make([]runtimemetrics.Sample, len(heapSamples))
	for i, name := range heapSamples {
		s[i].Name = name
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		peak, end := readHeapInUse(s), time.Now().Add(window)
		for {
			select {
			case <-h.stop:
				h.last = max(peak, readHeapInUse(s))
				return
			case now := <-t.C:
				if now.After(end) {
					h.peaks = append(h.peaks, peak)
					peak, end = 0, now.Add(window)
				}
				peak = max(peak, readHeapInUse(s))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median of the window peaks in MiB, or
// the part-window's peak when the run was shorter than a window.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	if len(h.peaks) == 0 {
		return h.last
	}
	return median(h.peaks)
}

// allocs reads the Go allocator's cumulative counters from runtime/metrics,
// which does not stop the world, so a run can read them around every
// operation.
type allocs struct{ bytes, objects, gcCycles uint64 }

var allocSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readAllocs() allocs {
	s := make([]runtimemetrics.Sample, len(allocSamples))
	for i, name := range allocSamples {
		s[i].Name = name
	}
	runtimemetrics.Read(s)
	return allocs{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a allocs) sub(b allocs) allocs {
	return allocs{a.bytes - b.bytes, a.objects - b.objects, a.gcCycles - b.gcCycles}
}

func (a allocs) add(b allocs) allocs {
	return allocs{a.bytes + b.bytes, a.objects + b.objects, a.gcCycles + b.gcCycles}
}

// fillAllocs reports allocation per operation and the GC cycles of the
// timed phase.
func fillAllocs(m map[string]float64, perOps allocs, ops int, gcCycles uint64) {
	n := float64(max(ops, 1))
	m["go.alloc_bytes_per_op"] = float64(perOps.bytes) / n
	m["go.allocs_per_op"] = float64(perOps.objects) / n
	m["go.gc_cycles"] = float64(gcCycles)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
