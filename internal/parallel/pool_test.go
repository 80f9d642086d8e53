package parallel

import (
	"sync"
	"testing"
)

// TestPoolNoCrossOwnerAliasing is the fleet-era pool hygiene regression
// test: many concurrent owners churn shared size-classed pools, each
// stamping a unique tag over its whole buffer and verifying the stamp
// survives until Put. If a pool ever handed one buffer to two live owners
// (double Put, size-class splice, racing free list), a foreign tag shows
// up — and under -race the write collision trips the detector too.
func TestPoolNoCrossOwnerAliasing(t *testing.T) {
	const (
		owners = 16
		rounds = 200
	)
	var (
		f64Pool  SlicePool[float64]
		f32Pool  SlicePool[float32]
		i32Pool  SlicePool[int32]
		u64Pool  SlicePool[uint64]
		intsPool SlicePool[int]
	)
	sizes := []int{1, 7, 64, 100, 1000, 4096}
	var wg sync.WaitGroup
	errs := make(chan string, owners)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(tag int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(tag+r)%len(sizes)]
				f64 := f64Pool.Get(n)
				f32 := f32Pool.Get(n)
				i32 := i32Pool.Get(n)
				u64 := u64Pool.Get(n)
				ints := intsPool.Get(n)
				clear(ints)
				for i := 0; i < n; i++ {
					f64[i] = float64(tag)
					f32[i] = float32(tag)
					i32[i] = int32(tag)
					u64[i] = uint64(tag)
					if ints[i] != 0 {
						errs <- "cleared pool buffer turned dirty while owned"
						return
					}
					ints[i] = tag
				}
				for i := 0; i < n; i++ {
					if f64[i] != float64(tag) || f32[i] != float32(tag) ||
						i32[i] != int32(tag) || u64[i] != uint64(tag) || ints[i] != tag {
						errs <- "buffer mutated while owned: two owners alias one pooled slice"
						return
					}
				}
				f64Pool.Put(f64)
				f32Pool.Put(f32)
				i32Pool.Put(i32)
				u64Pool.Put(u64)
				intsPool.Put(ints)
			}
		}(o + 1)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPoolFloorClassCapacity pins the floor-class rule the aliasing
// audit leans on: a returned slice with a non-power-of-two capacity is
// filed under the class whose buffers it can fully satisfy, so a future
// Get never receives a slice shorter than it asked for.
func TestPoolFloorClassCapacity(t *testing.T) {
	var p SlicePool[float64]
	s := make([]float64, 100) // cap 100: between classes 6 (64) and 7 (128)
	p.Put(s)
	for i := 0; i < 8; i++ {
		got := p.Get(100)
		if len(got) != 100 {
			t.Fatalf("Get(100) returned len %d", len(got))
		}
		p.Put(got)
	}
	// Class 6 requests must also be satisfiable by the odd-capacity buffer.
	got := p.Get(64)
	if len(got) != 64 {
		t.Fatalf("Get(64) returned len %d", len(got))
	}
	p.Put(got)
}
