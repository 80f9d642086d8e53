// Package parallel is the multi-core compute substrate for the perception
// kernels: a shared worker pool sized from runtime.NumCPU, tiled
// parallel-for helpers, and scratch-buffer pools that stop hot loops from
// allocating per call.
//
// Determinism contract (the hard requirement of the calibrated figures):
// every helper here must produce byte-identical results for any worker
// count. The rules callers follow are
//
//  1. For/ForRows bodies may write only to locations owned by their index
//     range, and each element's value may depend only on inputs — never on
//     other tiles or on visitation order;
//  2. reductions go through ForTiled, whose tile decomposition depends only
//     on (n, grain) — never on the worker count — so per-tile partials are
//     identical however many workers run, and the caller combines them in
//     tile order;
//  3. commutative-exact merges (integer counters) may combine in any order.
//
// There is no data-dependent floating-point reassociation anywhere: a
// kernel either computes each output element with the same serial
// instruction stream as before, or reduces tile partials in a fixed order.
//
// Allocation. A parallel fan-out keeps its shared state — body, tile
// geometry, claim and completion counters — in a job descriptor taken from
// a package free list, and the pool queue carries *job, so For and ForTiled
// build no closure of their own. A job returns to the free list only when
// its last holder lets go: the submitter plus every helper it queued, each
// holding one reference. A queued helper can start after its fan-out has
// finished; its reference keeps the job from being recycled into an
// unrelated fan-out under it. A caller that passes a body bound once (a
// method value or a package-level func, not a capturing closure) therefore
// fans out with no allocation once warm. Do still takes its functions as a
// variadic slice, which allocates when the call goes parallel.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// configured holds the SetWorkers override; 0 means runtime.NumCPU().
var configured atomic.Int64

// Workers returns the current parallelism target: the SetWorkers override
// when set, else runtime.NumCPU().
func Workers() int {
	if n := configured.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// SetWorkers overrides the worker count (n <= 0 resets to runtime.NumCPU)
// and returns the previous effective count. Outputs are byte-identical for
// any setting; only wall-clock time changes.
func SetWorkers(n int) int {
	prev := Workers()
	if n <= 0 {
		n = 0
	}
	configured.Store(int64(n))
	return prev
}

// tasks is the shared pool's run queue. Helper execution is opportunistic:
// a submitting goroutine never blocks on the queue and always processes
// tiles itself, so a saturated pool (e.g. nested parallelism) degrades to
// caller-runs-everything instead of deadlocking.
var tasks chan *job

var poolStarted atomic.Bool

func ensurePool() {
	if poolStarted.Load() {
		return
	}
	if !poolStarted.CompareAndSwap(false, true) {
		return
	}
	n := runtime.NumCPU()
	if n < 4 {
		// Keep a few helpers even on small hosts so SetWorkers(n>NumCPU)
		// still interleaves goroutines (the determinism tests rely on it).
		n = 4
	}
	//sovlint:ignore hotalloc one-time pool bring-up behind the CAS; never runs again after the first fan-out
	tasks = make(chan *job, 8*n)
	for i := 0; i < n; i++ {
		//sovlint:ignore hotalloc one-time pool bring-up behind the CAS; never runs again after the first fan-out
		go func() {
			for j := range tasks {
				j.help()
			}
		}()
	}
}

// Cumulative substrate counters for the telemetry layer: parallel-for
// invocations, tiles executed, and the share of tiles claimed through the
// shared pool queue rather than inline by the submitter. Tile totals are
// deterministic for a fixed worker count; the pool/inline split depends on
// host scheduling, so the registry publishes these as host-class metrics.
var (
	statRuns      atomic.Int64
	statTiles     atomic.Int64
	statPoolTiles atomic.Int64
)

// Counters is a snapshot of the substrate's cumulative activity since
// process start. Subtract two snapshots to scope a run.
type Counters struct {
	// Runs counts run() invocations (parallel For/ForTiled/Do fan-outs).
	Runs int64
	// Tiles counts tiles (or Do functions) executed across all runs.
	Tiles int64
	// PoolTiles counts tiles claimed via pool-queued loops; Tiles minus
	// PoolTiles were executed inline by the submitting goroutine.
	PoolTiles int64
}

// CounterSnapshot returns the current cumulative counters.
func CounterSnapshot() Counters {
	return Counters{
		Runs:      statRuns.Load(),
		Tiles:     statTiles.Load(),
		PoolTiles: statPoolTiles.Load(),
	}
}

// job is one fan-out's shared state (see the package doc's Allocation
// paragraph). Exactly one of span, tiled and fs is set.
type job struct {
	span     func(start, end int)       // For
	tiled    func(tile, start, end int) // ForTiled
	fs       []func()                   // Do
	n, grain int
	count    int64
	// claimed hands out tile indices; completed counts finished tiles, and
	// the submitter returns once it reaches count.
	claimed, completed atomic.Int64
	// refs counts the job's holders: the submitter plus every helper it
	// queued. The last one to leave returns the job to the free list.
	refs atomic.Int32
	next *job // free-list link
}

// jobs is the free list of idle job descriptors.
var jobs struct {
	mu   sync.Mutex
	head *job
}

// getJob pops an idle job (or allocates one on a free-list miss).
func getJob() *job {
	jobs.mu.Lock()
	j := jobs.head
	if j != nil {
		jobs.head = j.next
		j.next = nil
	}
	jobs.mu.Unlock()
	if j == nil {
		//sovlint:ignore hotalloc free-list miss; the list grows to the most fan-outs ever live at once and is reused from then on
		j = new(job)
	}
	return j
}

// release drops one holder's reference. The last holder clears the body
// (so an idle job pins no caller state) and pushes the job on the free
// list.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.span, j.tiled, j.fs = nil, nil, nil
	jobs.mu.Lock()
	j.next = jobs.head
	jobs.head = j
	jobs.mu.Unlock()
}

// exec runs tile i of the job.
func (j *job) exec(i int) {
	if j.fs != nil {
		j.fs[i]()
		return
	}
	start := i * j.grain
	end := min(start+j.grain, j.n)
	if j.tiled != nil {
		j.tiled(i, start, end)
		return
	}
	j.span(start, end)
}

// claim runs tiles until none is left to claim. pool marks tiles claimed
// through the shared queue (the PoolTiles counter).
func (j *job) claim(pool bool) {
	for {
		i := j.claimed.Add(1) - 1
		if i >= j.count {
			return
		}
		j.exec(int(i))
		if pool {
			statPoolTiles.Add(1)
		}
		j.completed.Add(1)
	}
}

// help is a queued helper's turn at the job: claim what is left, then let
// go. A helper that starts after its fan-out has finished claims nothing.
func (j *job) help() {
	j.claim(true)
	j.release()
}

// run executes the job's count tiles, each exactly once, using up to
// `helpers` pool goroutines plus the calling goroutine. While waiting for
// stragglers the caller drains the shared queue, so nested calls cannot
// deadlock. The job comes from getJob with its body and geometry set. run
// takes one reference for the caller and one per queued helper; the job
// goes back to the free list when the last of them releases it, so a
// helper still queued after the fan-out ends never claims from a job that
// was recycled into another fan-out.
func run(j *job, count, helpers int) {
	statRuns.Add(1)
	statTiles.Add(int64(count))
	j.count = int64(count)
	j.claimed.Store(0)
	j.completed.Store(0)
	j.refs.Store(1)
	if helpers > count-1 {
		helpers = count - 1
	}
	if helpers > 0 {
		ensurePool()
	submit:
		for i := 0; i < helpers; i++ {
			// Take the helper's reference before the send: the helper may
			// finish and release before the select returns.
			j.refs.Add(1)
			select {
			case tasks <- j:
			default:
				j.refs.Add(-1)
				break submit // pool saturated: caller handles the rest
			}
		}
	}
	// The caller claims tiles inline until the queue is exhausted (same
	// claim protocol as the pool helpers, without the pool-tile accounting).
	j.claim(false)
	for j.completed.Load() < j.count {
		// Help with whatever is queued instead of blocking a pool slot.
		select {
		case o := <-tasks:
			o.help()
		default:
			runtime.Gosched()
		}
	}
	j.release()
}

// Tiles returns the tile count For/ForTiled use for n elements at the given
// grain. It depends only on (n, grain) — never on the worker count.
func Tiles(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// For runs fn over [0, n) split into contiguous tiles of at most grain
// elements. fn must satisfy rule 1 of the package determinism contract:
// disjoint writes, element values independent of tiling. With one worker
// (or one tile) fn is invoked once as fn(0, n).
func For(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tiles := Tiles(n, grain)
	w := Workers()
	if w <= 1 || tiles <= 1 {
		fn(0, n)
		return
	}
	j := getJob()
	j.span, j.n, j.grain = fn, n, grain
	run(j, tiles, w-1)
}

// ForRows runs fn over the row range [0, h) one row per tile — the common
// decomposition for image kernels, where a row is already a substantial
// unit of work.
func ForRows(h int, fn func(y0, y1 int)) { For(h, 1, fn) }

// ForTiled runs fn(tile, start, end) over the fixed decomposition reported
// by Tiles(n, grain). Unlike For, the serial path also iterates per tile,
// so per-tile partial results (rule 2) are identical for any worker count
// and can be reduced in tile order by the caller.
func ForTiled(n, grain int, fn func(tile, start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tiles := Tiles(n, grain)
	w := Workers()
	if w <= 1 || tiles <= 1 {
		for t := 0; t < tiles; t++ {
			fn(t, t*grain, min(t*grain+grain, n))
		}
		return
	}
	j := getJob()
	j.tiled, j.n, j.grain = fn, n, grain
	run(j, tiles, w-1)
}

// Do runs the given functions, possibly concurrently, and returns when all
// have completed. The functions must be mutually independent; with one
// worker they run serially in argument order, so independence is also what
// makes the serial and parallel schedules indistinguishable.
func Do(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	w := Workers()
	if w <= 1 || len(fs) == 1 {
		for _, f := range fs {
			f()
		}
		return
	}
	if w > len(fs) {
		w = len(fs)
	}
	j := getJob()
	j.fs = fs
	run(j, len(fs), w-1)
}
