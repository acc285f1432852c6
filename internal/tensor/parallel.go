package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"logsynergy/internal/obs"
)

// This file is the shared parallel compute runtime: a lazily started worker
// pool that every data-parallel kernel in the project shards onto. The
// partitioning rules are deliberately static — a range [0,n) always splits
// into the same contiguous spans for a given (n, worker count) — so that
// parallel results are reproducible run to run, and the matrix kernels are
// bit-identical to their serial counterparts (each output row is computed
// by exactly one worker in the serial per-row order; only reductions that
// combine chunk partials can differ from serial, by reassociation alone).
//
// Sizing: the pool defaults to runtime.GOMAXPROCS(0) workers, overridable
// with SetParallelism (the logsynergy CLI wires LOGSYNERGY_THREADS to it).
// Small operations stay on the calling goroutine: a kernel only shards when
// its estimated scalar-op count reaches MinParallelWork, because waking
// workers for a 4×4 matmul costs more than the multiply.

var (
	// parallelism is the configured worker count (0 = uninitialized, use
	// GOMAXPROCS at first read).
	parallelism atomic.Int64
	// minParallelWork is the serial-fallback threshold in estimated scalar
	// operations; work below it never leaves the calling goroutine.
	minParallelWork atomic.Int64

	poolMu      sync.Mutex
	poolTasks   chan func()
	poolWorkers atomic.Int64

	// Dispatch metrics (obs.Default): how often kernels take the serial
	// fallback vs shard onto the pool, and enqueue-to-completion latency
	// of pooled span tasks. Single atomic ops — cheap enough for the
	// per-kernel dispatch path.
	dispatchSerial   = obs.Default().Counter("tensor.dispatch.serial")
	dispatchParallel = obs.Default().Counter("tensor.dispatch.parallel")
	poolTaskSeconds  = obs.Default().Histogram("tensor.pool.task_seconds")
)

// DefaultMinParallelWork is the default serial-fallback threshold: kernels
// with fewer estimated scalar operations run serially. The value is roughly
// where a row-sharded matmul starts beating the serial kernel on commodity
// cores (goroutine handoff ~1µs vs ~3ns per multiply-add).
const DefaultMinParallelWork = 1 << 15

// Parallelism returns the current worker count used by parallel kernels.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the worker count for all parallel kernels and returns
// the previous setting. n <= 0 resets to runtime.GOMAXPROCS(0). Passing 1
// disables parallel execution entirely (every kernel takes its serial path).
func SetParallelism(n int) int {
	prev := int(parallelism.Load())
	if n <= 0 {
		parallelism.Store(0)
		return prev
	}
	parallelism.Store(int64(n))
	ensureWorkers(n)
	return prev
}

// MinParallelWork returns the serial-fallback threshold in estimated scalar
// operations.
func MinParallelWork() int {
	if w := minParallelWork.Load(); w > 0 {
		return int(w)
	}
	return DefaultMinParallelWork
}

// SetMinParallelWork sets the serial-fallback threshold and returns the
// previous setting. Lower values push smaller operations onto the pool
// (tests use 1 to force every kernel through the parallel path); w <= 0
// resets to DefaultMinParallelWork.
func SetMinParallelWork(w int) int {
	prev := int(minParallelWork.Load())
	if prev == 0 {
		prev = DefaultMinParallelWork
	}
	if w <= 0 {
		minParallelWork.Store(0)
	} else {
		minParallelWork.Store(int64(w))
	}
	return prev
}

// shouldParallel reports whether a kernel with the given estimated scalar-op
// count should shard onto the pool.
func shouldParallel(work int) bool {
	return work >= MinParallelWork() && Parallelism() > 1
}

// ensureWorkers grows the pool to at least n resident workers. Workers are
// never stopped; an idle worker parked on the task channel costs a few KB.
func ensureWorkers(n int) {
	if int(poolWorkers.Load()) >= n {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolTasks == nil {
		// The queue is sized generously once; nested kernels that overflow
		// it degrade to inline execution in ParallelRange.
		poolTasks = make(chan func(), 256)
	}
	for int(poolWorkers.Load()) < n {
		go func() {
			for task := range poolTasks {
				task()
			}
		}()
		poolWorkers.Add(1)
	}
}

// ParallelRange splits [0,n) into at most Parallelism() contiguous spans
// and invokes fn(lo, hi) for each, returning when all spans are done. work
// is the caller's estimate of total scalar operations; below the
// serial-fallback threshold (or with parallelism 1, or n < 2) the entire
// range runs as fn(0, n) on the calling goroutine.
//
// The span boundaries depend only on n and the configured worker count, so
// a fixed configuration always produces the same partition — parallel runs
// are reproducible. fn must not panic: a panic in a pooled span crashes the
// process (kernels here only index slices they were handed).
func ParallelRange(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := Parallelism()
	if n < 2 || !shouldParallel(work) {
		dispatchSerial.Inc()
		fn(0, n)
		return
	}
	dispatchParallel.Inc()
	spans := workers
	if spans > n {
		spans = n
	}
	ensureWorkers(workers)

	// Fork with a helping join. The caller seeds spans-1 tasks, runs the
	// last span itself, then — instead of parking until its spans finish —
	// pulls and executes queued tasks (its own or another invocation's)
	// while it waits. Helping makes nested ParallelRange calls (a span
	// that itself runs a parallel kernel) deadlock-free: a joiner blocked
	// on subtasks is always also a consumer of the queue those subtasks
	// sit in.
	var pending atomic.Int64
	pending.Store(int64(spans - 1))
	done := make(chan struct{})

	chunk := n / spans
	rem := n % spans
	lo := 0
	for s := 0; s < spans-1; s++ {
		hi := lo + chunk
		if s < rem {
			hi++
		}
		start, end := lo, hi
		enqueued := time.Now()
		task := func() {
			fn(start, end)
			poolTaskSeconds.ObserveSince(enqueued)
			if pending.Add(-1) == 0 {
				close(done)
			}
		}
		select {
		case poolTasks <- task:
		default:
			// Queue saturated: degrade to inline execution rather than block.
			task()
		}
		lo = hi
	}
	fn(lo, n) // the caller's own span

	for pending.Load() > 0 {
		select {
		case task := <-poolTasks:
			task()
		case <-done:
			return
		}
	}
}

// reduceChunk is the fixed block size deterministic parallel reductions
// split on. It depends on neither n nor the worker count, so the partial
// ordering — and therefore the floating-point result — of a reduction is a
// function of input length alone.
const reduceChunk = 4096

// parallelReduce computes a reduction over [0,n) by evaluating fn on fixed
// 4096-element blocks and summing the partials in block order. The result
// is deterministic for a given n regardless of the worker count (it can
// differ from the pure left-to-right serial sum by reassociation only).
func parallelReduce(n, workPerElem int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if n <= reduceChunk || !shouldParallel(n*workPerElem) {
		return fn(0, n)
	}
	blocks := (n + reduceChunk - 1) / reduceChunk
	partials := make([]float64, blocks)
	ParallelRange(blocks, n*workPerElem, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * reduceChunk
			hi := lo + reduceChunk
			if hi > n {
				hi = n
			}
			partials[b] = fn(lo, hi)
		}
	})
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}
