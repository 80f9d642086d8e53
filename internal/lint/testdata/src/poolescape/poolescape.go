// Package poolescape is the fixture for the pool-ownership analyzer: every
// way a borrowed buffer can grow a second owner, next to the disciplined
// idioms that must stay silent.
package poolescape

import "sov/internal/parallel"

type holder struct {
	stash []float64
}

var global []float64

// scratch is the fixture's package-level pool, declared the way every
// kernel package declares its own.
var scratch parallel.SlicePool[float64]

// fieldStore parks a borrowed buffer in state reachable from a parameter —
// the exact aliasing bug the fleet arena work hit.
func fieldStore(h *holder, n int) {
	buf := scratch.Get(n)
	h.stash = buf // want: stored into field h.stash
	scratch.Put(buf)
}

// globalStore parks the borrow in a package-level variable.
func globalStore(n int) {
	buf := scratch.Get(n)
	global = buf // want: stored into package-level var
	scratch.Put(buf)
}

// chanSend hands the borrow to another goroutine over a channel.
func chanSend(ch chan []float64, n int) {
	buf := scratch.Get(n)
	ch <- buf // want: sent on a channel
}

// goCapture leaks the borrow into a spawned goroutine's closure.
func goCapture(n int) {
	buf := scratch.Get(n)
	go func() { buf[0] = 1 }() // want: captured by a spawned goroutine
	scratch.Put(buf)
}

// useAfterPut touches the buffer after surrendering it.
func useAfterPut(n int) float64 {
	buf := scratch.Get(n)
	scratch.Put(buf)
	return buf[0] // want: used after release
}

// doublePut releases the same borrow twice.
func doublePut(n int) {
	buf := scratch.Get(n)
	scratch.Put(buf)
	scratch.Put(buf) // want: released twice
}

// returnPastDefer returns a buffer its own deferred Put already released.
func returnPastDefer(n int) []float64 {
	buf := scratch.Get(n)
	defer scratch.Put(buf)
	return buf // want: returned past deferred release
}

// park stores its parameter in escaping state; no finding here (the
// argument is the caller's problem), but the escapesParam summary is.
func park(h *holder, b []float64) {
	h.stash = b
}

// escapeViaCallee hands the borrow to a summarized module function that
// stores it — the interprocedural escape.
func escapeViaCallee(h *holder, n int) {
	buf := scratch.Get(n)
	park(h, buf) // want: passed to park, which stores it
	scratch.Put(buf)
}

// rent transfers ownership out to the caller — the legal "caller must
// release" idiom, recorded as a returnsPooled summary, not a finding.
func rent(n int) []float64 {
	return scratch.Get(n)
}

// disciplined is the clean life cycle: borrow through a helper, fan out
// with parallel.For (its closures run before For returns), release once.
func disciplined(n int) float64 {
	buf := rent(n)
	parallel.For(len(buf), 64, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			buf[i] = 1
		}
	})
	s := 0.0
	for _, v := range buf {
		s += v
	}
	scratch.Put(buf)
	return s
}

// conditionalRelease releases early on one branch only; the success path
// below must not be poisoned by that block-scoped Put.
func conditionalRelease(n int, bad bool) float64 {
	buf := scratch.Get(n)
	if bad {
		scratch.Put(buf)
		return 0
	}
	v := buf[0]
	scratch.Put(buf)
	return v
}
