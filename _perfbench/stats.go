package main

import (
	"encoding/json"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the run never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval: a call into a layer made by the benchmark.
// Spans of one operation (an epoch, a frame set) share op; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	list []span
}

// begin opens a span and returns its index (-1 when not tracing).
func (s *spans) begin(name string, parent int32, op int64) int32 {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Start: int64(now()), Parent: parent, Op: op})
	return int32(len(s.list) - 1)
}

// end closes span i.
func (s *spans) end(i int32) {
	if s == nil || i < 0 {
		return
	}
	s.list[i].End = int64(now())
}

// total sums the duration of every span with the given name.
func (s *spans) total(name string) time.Duration {
	var d int64
	for _, sp := range s.list {
		if sp.Name == name {
			d += sp.End - sp.Start
		}
	}
	return time.Duration(d)
}

func (s *spans) encode(enc *json.Encoder) error {
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			return err
		}
	}
	return nil
}

// runtimeStats samples the Go runtime's allocation, GC-CPU and live-heap
// counters through runtime/metrics, which does not stop the world.
type runtimeStats struct {
	samples []metrics.Sample
}

const (
	rtAllocs   = "/gc/heap/allocs:objects"
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtAllCPU   = "/cpu/classes/total:cpu-seconds"
	rtLiveHeap = "/gc/heap/live:bytes"
)

func newRuntimeStats() *runtimeStats {
	return &runtimeStats{samples: []metrics.Sample{
		{Name: rtAllocs}, {Name: rtGCCPU}, {Name: rtAllCPU}, {Name: rtLiveHeap},
	}}
}

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	allocs       uint64
	gcCPU, allCP float64
}

func (r *runtimeStats) snap() rtSnap {
	metrics.Read(r.samples)
	return rtSnap{
		allocs: r.samples[0].Value.Uint64(),
		gcCPU:  r.samples[1].Value.Float64(),
		allCP:  r.samples[2].Value.Float64(),
	}
}

// liveHeap returns the heap marked live by the most recent GC, in bytes.
func (r *runtimeStats) liveHeap() uint64 {
	metrics.Read(r.samples[3:])
	return r.samples[3].Value.Uint64()
}

// heapPeak tracks the largest live heap seen at the workload's
// checkpoints: fixed points of the workload, such as the end of a round,
// where a forced collection makes the live heap exact instead of a matter
// of when the collector last ran. Checkpoints sit outside every timed call.
type heapPeak struct {
	rt   *runtimeStats
	peak uint64
}

func (h *heapPeak) checkpoint() {
	runtime.GC()
	if b := h.rt.liveHeap(); b > h.peak {
		h.peak = b
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }
