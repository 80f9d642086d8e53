package parallel

import (
	"math/bits"
	"sync"
)

// Scratch-buffer pools. Hot kernels (SGM scanline aggregation, stereo cost
// vectors, FFT column gathers, KCF spectra, ICP reuse counters, NN
// activations) borrow scratch from a SlicePool instead of allocating per
// call. Each calling package declares its own pool per element type, e.g.
//
//	var costPool parallel.SlicePool[int32]
//
// Buffers are size-classed by power of two; Get returns a slice of the
// requested length whose contents are unspecified — callers must overwrite
// (or clear) before reading.
//
// Cross-vehicle sharing (fleet audit, DESIGN.md §11). A package's pool is
// process-global: in a fleet run every vehicle's kernels draw from the
// same free lists, concurrently. That is safe under one ownership rule,
// which every package's pool inherits — between Get and the matching Put a
// buffer has exactly one owner, and Put surrenders it: the caller must
// hold no alias past Put (no stashing a sub-slice in longer-lived state).
// Every repo call site follows the paired get/defer-put or
// get/use/put-in-same-frame shape; nothing retains pooled memory across a
// frame boundary, and sovlint's poolescape analyzer rejects the shapes
// that would. The floor-class rule in Put (a non-power-of-two cap files
// under the next class down) can only shrink the capacity a future Get
// sees, never splice two live buffers together, so aliasing can arise from
// a double Put alone — which the ownership rule forbids.
// TestPoolNoCrossOwnerAliasing churns pools from many goroutines with
// per-owner tags (and the fleet's 64-vehicle -race test exercises the same
// property end to end through the full perception stack).

const poolClasses = 31

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// SlicePool is a size-classed free list of scratch slices. Get pops a free
// slice and Put pushes it back without boxing the slice header, so a loop
// that borrows a few buffers per call allocates nothing once warm. The
// zero value is ready to use.
type SlicePool[T any] struct {
	mu      sync.Mutex
	classes [poolClasses][][]T
}

// Get returns a slice of length n (contents unspecified, capacity the
// enclosing power of two).
func (p *SlicePool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	p.mu.Lock()
	if free := p.classes[c]; len(free) > 0 {
		s := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	//sovlint:ignore hotalloc pool-miss slow path; amortized away once the size class is warm
	return make([]T, n, 1<<c)
}

// Put returns a slice obtained from Get to its size class for reuse.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := sizeClass(cap(s))
	if 1<<c != cap(s) {
		c-- // cap is not a power of two: file under the floor class
	}
	p.mu.Lock()
	p.classes[c] = append(p.classes[c], s[:cap(s)])
	p.mu.Unlock()
}
