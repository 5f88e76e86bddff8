// Package par is the repository's deterministic worker-pool substrate.
// The workloads it serves — the driver seed sweeps and the soak
// campaigns — are embarrassingly parallel *and* determinism-critical:
// every caller's observable output must be a pure function of its
// inputs, never of goroutine arrival order. The package therefore
// provides exactly one parallel shape, an indexed for-loop, and fixes
// its semantics so that callers cannot observe scheduling:
//
//   - work is identified by index, so results live in caller-owned
//     per-index slots (no shared accumulation unless the caller's
//     aggregation is commutative);
//   - the returned error is the one raised at the LOWEST index, exactly
//     what a sequential loop that stops at the first failure reports;
//   - after any error the remaining indices are cancelled on a
//     best-effort basis, but indices below the failing one always run
//     to completion, so "everything before the reported failure" is
//     fully populated;
//   - a panicking fn never deadlocks the pool: the panic is recovered
//     in the worker, ranked like an error at its index, and the
//     lowest-index failure — panic or error — wins; when a panic wins,
//     ForEach re-panics with the original value on the caller's
//     goroutine, matching what the sequential loop would have done.
//
// Thread-safety contract for callers: fn(i) and fn(j) run concurrently,
// so each index must touch only its own slot plus data that is
// read-only for the duration of the loop (see the sim package's
// "Concurrency contract" for what that means for simulator runs). The
// slot/merge/sink/seed halves of this contract are machine-checked by
// detlint's parallel-determinism rules — slotdiscipline, mergeorder,
// sharedsink, seedflow (see README.md "Static analysis").
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// panicError carries a recovered panic value through the pool's
// lowest-index-wins error ranking. Pointer-shaped on purpose: storing
// it in the error interface allocates nothing beyond the value itself.
type panicError struct {
	val any
}

func (p *panicError) Error() string { return fmt.Sprintf("par: worker panic: %v", p.val) }

// run executes fn(i), converting a panic into a *panicError so the
// pool's ranking machinery can treat it as a failure at that index.
func run(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	return fn(i)
}

// Default returns the default worker count: GOMAXPROCS, the number of
// OS threads that can execute Go code simultaneously. Sweeps are CPU
// bound, so more workers than that only adds scheduling noise.
func Default() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a worker-count flag or parameter: values <= 0 mean
// Default(), and the count never exceeds n (spawning more workers than
// work items is pure overhead).
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = Default()
	}
	if n >= 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) across the given number of
// workers (<= 0 means Default()) and blocks until all spawned work has
// finished. Indices are handed out in increasing order.
//
// Error semantics are sequential: ForEach returns the error produced at
// the lowest index, and on the first error it stops handing out indices
// above the failing one, so the result is independent of which worker
// ran what. Every index below the lowest failing index is guaranteed to
// have completed; indices above it may or may not have run.
//
// A panic in fn is recovered in the worker (the pool never deadlocks
// on a panicking body), ranked against errors by index, and — when the
// panic holds the lowest failing index — re-raised with its original
// value on the calling goroutine once all workers have drained.
//
// With workers == 1 ForEach degenerates to a plain loop on the calling
// goroutine — no goroutines, no synchronization — so sequential
// baselines pay nothing.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next index to hand out
		failed   atomic.Int64 // lowest failing index + 1 (0 = none), monotone
		mu       sync.Mutex
		firstI   int = n // lowest failing index seen so far
		firstErr error
		wg       sync.WaitGroup
	)
	// bound() is the first index we can prove need not run: once an
	// error exists at index e, indices > e are cancellable, but indices
	// <= e must still complete to preserve sequential semantics.
	bound := func() int64 {
		if f := failed.Load(); f != 0 {
			return f // == failing index + 1
		}
		return int64(n)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//detlint:allow nodeterminism worker pool: indices are handed out by an atomic counter and every observable result is keyed by index (lowest-error-wins), so the outcome is independent of goroutine interleaving
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= bound() {
					return
				}
				if err := run(fn, int(i)); err != nil {
					mu.Lock()
					if int(i) < firstI {
						firstI, firstErr = int(i), err
					}
					mu.Unlock()
					// Publish the lowest known failing index so other
					// workers stop starting work above it.
					for {
						f := failed.Load()
						if f != 0 && f <= i+1 {
							break
						}
						if failed.CompareAndSwap(f, i+1) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// A panic that won the lowest-index race surfaces as a panic on the
	// caller's goroutine, exactly as the sequential loop would have
	// panicked at that index.
	if pe, ok := firstErr.(*panicError); ok {
		panic(pe.val)
	}
	return firstErr
}
