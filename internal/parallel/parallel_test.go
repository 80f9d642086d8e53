package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", Workers(), runtime.NumCPU())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 1237
			counts := make([]int32, n)
			For(n, 16, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

func TestForRowsDisjointWrites(t *testing.T) {
	withWorkers(t, 8, func() {
		const h, wdt = 64, 32
		out := make([]int, h*wdt)
		ForRows(h, func(y0, y1 int) {
			for y := y0; y < y1; y++ {
				for x := 0; x < wdt; x++ {
					out[y*wdt+x] = y*wdt + x
				}
			}
		})
		for i, v := range out {
			if v != i {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
	})
}

// TestForTiledDecompositionIsWorkerIndependent is the determinism linchpin:
// the tile boundaries seen by reduction kernels must not move with the
// worker count.
func TestForTiledDecompositionIsWorkerIndependent(t *testing.T) {
	const n, grain = 1000, 96
	gather := func(workers int) [][2]int {
		var out [][2]int
		withWorkers(t, workers, func() {
			out = make([][2]int, Tiles(n, grain))
			ForTiled(n, grain, func(tile, start, end int) {
				out[tile] = [2]int{start, end}
			})
		})
		return out
	}
	a, b := gather(1), gather(8)
	if len(a) != len(b) {
		t.Fatalf("tile counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tile %d bounds differ: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOrderedTileReductionIsDeterministic(t *testing.T) {
	const n, grain = 4096, 128
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func(workers int) float64 {
		var s float64
		withWorkers(t, workers, func() {
			partial := make([]float64, Tiles(n, grain))
			ForTiled(n, grain, func(tile, start, end int) {
				var p float64
				for i := start; i < end; i++ {
					p += xs[i]
				}
				partial[tile] = p
			})
			for _, p := range partial {
				s += p
			}
		})
		return s
	}
	if a, b := sum(1), sum(8); a != b {
		t.Fatalf("ordered reduction differs: %v vs %v", a, b)
	}
}

func TestDoRunsAll(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			var a, b, c int32
			Do(
				func() { atomic.AddInt32(&a, 1) },
				func() { atomic.AddInt32(&b, 1) },
				func() { atomic.AddInt32(&c, 1) },
			)
			if a != 1 || b != 1 || c != 1 {
				t.Fatalf("workers=%d: Do ran (%d,%d,%d)", w, a, b, c)
			}
		})
	}
}

// TestNestedForDoesNotDeadlock exercises parallel-inside-parallel: the
// submit path must never block when the pool is saturated.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 8, func() {
		var total int64
		For(16, 1, func(s, e int) {
			For(64, 4, func(s2, e2 int) {
				atomic.AddInt64(&total, int64(e2-s2))
			})
		})
		if total != 16*64 {
			t.Fatalf("nested total = %d, want %d", total, 16*64)
		}
	})
}

// spanSink is a fan-out body bound once, as method values: the shape the
// quantized nn layers and the fleet epoch loop use.
type spanSink struct{ hits []int32 }

func (s *spanSink) span(start, end int) {
	for i := start; i < end; i++ {
		atomic.AddInt32(&s.hits[i], 1)
	}
}

func (s *spanSink) tile(_, start, end int) { s.span(start, end) }

// TestBoundBodyFanOutZeroAlloc pins the substrate's half of the zero-alloc
// contract on any host: with a body bound once, a warm For or ForTiled
// allocates nothing per call, on the serial path and on the parallel path
// (job descriptors come from the free list, not the heap).
func TestBoundBodyFanOutZeroAlloc(t *testing.T) {
	const n, grain, calls = 1024, 64, 50
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			s := &spanSink{hits: make([]int32, n)}
			span, tile := s.span, s.tile
			call := func() {
				For(n, grain, span)
				ForTiled(n, grain, tile)
			}
			call() // warm the job free list
			c0 := CounterSnapshot()
			if avg := testing.AllocsPerRun(calls, call); avg != 0 {
				t.Fatalf("workers=%d: warm For+ForTiled with bound bodies allocates %.2f times per call, want 0", w, avg)
			}
			// AllocsPerRun makes one extra warm-up call.
			if runs := CounterSnapshot().Runs - c0.Runs; w > 1 && runs != 2*(calls+1) {
				t.Fatalf("workers=%d: %d parallel fan-outs, want %d (the parallel path was not measured)", w, runs, 2*(calls+1))
			}
			for i, h := range s.hits {
				if h != 2*(calls+2) {
					t.Fatalf("workers=%d: index %d visited %d times, want %d", w, i, h, 2*(calls+2))
				}
			}
		})
	}
}

// TestRecycledJobsNeverCrossFanOuts churns short fan-outs from several
// goroutines so job descriptors recycle constantly. A queued helper may
// start after its fan-out finished; if its job were recycled under it, its
// claim would interleave with the next fan-out's set-up on the same job
// (a data race under -race) and could run tiles against a half-set job,
// so some index would be visited twice or never.
func TestRecycledJobsNeverCrossFanOuts(t *testing.T) {
	withWorkers(t, 4, func() {
		const submitters, rounds, n = 4, 300, 8
		done := make(chan string, submitters)
		for g := 0; g < submitters; g++ {
			go func() {
				s := &spanSink{hits: make([]int32, n)}
				for r := 1; r <= rounds; r++ {
					For(n, 1, s.span)
					for i, h := range s.hits {
						if h != int32(r) {
							done <- fmt.Sprintf("round %d: index %d visited %d times, want %d", r, i, h, r)
							return
						}
					}
				}
				done <- ""
			}()
		}
		for g := 0; g < submitters; g++ {
			if msg := <-done; msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

func TestEmptyAndDegenerate(t *testing.T) {
	For(0, 4, func(int, int) { t.Fatal("fn called for n=0") })
	ForTiled(-3, 4, func(int, int, int) { t.Fatal("fn called for n<0") })
	Do()
	if Tiles(0, 8) != 0 || Tiles(9, 4) != 3 || Tiles(8, 0) != 8 {
		t.Fatalf("Tiles miscounted: %d %d %d", Tiles(0, 8), Tiles(9, 4), Tiles(8, 0))
	}
}

func TestScratchPools(t *testing.T) {
	var fp SlicePool[float64]
	f := fp.Get(100)
	if len(f) != 100 || cap(f) != 128 {
		t.Fatalf("Get(100) len %d cap %d, want 100/128", len(f), cap(f))
	}
	fp.Put(f)
	// Contents are unspecified: a reused buffer comes back dirty, so
	// counter accumulators (the ICP reuse counts) clear after Get.
	var ip SlicePool[int]
	in := ip.Get(57)
	for i := range in {
		in[i] = i + 1
	}
	ip.Put(in)
	in2 := ip.Get(57)
	if &in2[0] != &in[0] {
		t.Fatal("Get after Put did not reuse the released buffer")
	}
	clear(in2)
	for i, v := range in2 {
		if v != 0 {
			t.Fatalf("cleared reused buffer [%d] = %d", i, v)
		}
	}
	ip.Put(in2)
	// Zero-length gets are nil and Puts of them are no-ops.
	if fp.Get(0) != nil {
		t.Fatal("Get(0) != nil")
	}
	fp.Put(nil)
}

func BenchmarkForOverhead(b *testing.B) {
	prev := SetWorkers(runtime.NumCPU())
	defer SetWorkers(prev)
	out := make([]float64, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(out), 1024, func(s, e int) {
			for j := s; j < e; j++ {
				out[j] = float64(j) * 1.5
			}
		})
	}
}
