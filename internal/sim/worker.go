// The one file that imports iter. The build constraint sets its language
// version to go1.23 while go.mod stays at go 1.22: the benchmark module
// (perfbench/go.mod) says go 1.22 and replaces detobj with this tree, so
// a higher go line here fails its build with "updates to go.mod needed".
//
//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A worker runs process incarnations as an iter.Pull coroutine that
// yields at every invocation, trace mark and job end, so exactly one side
// runs at a time. Workers are reused across incarnations and runs: under
// the race detector every coroutine ever created keeps a few kilobytes.
type worker struct {
	next     func() (*message, bool)
	yield    func(*message) bool
	msg      message // the last yielded message; every yield passes &msg
	ctx      Ctx
	recovery RecoveryProc // run first by incarnations >= 1
	prog     Program
	abort    bool // the job is being cancelled
}

// idle holds parked workers for any goroutine to reuse. It is not
// capped: it never holds more workers than there were processes alive at
// once. A sync.Pool would drop workers without stopping them, leaking
// their coroutines.
var idle struct {
	sync.Mutex
	ws      []*worker
	created int // coroutines ever created, for the reuse tests
}

// startWorker hands an incarnation to an idle (or new) worker. Nothing
// runs until the caller resumes it with next.
func startWorker(id, inc int, recovery RecoveryProc, prog Program) *worker {
	idle.Lock()
	var w *worker
	if n := len(idle.ws); n > 0 {
		w, idle.ws = idle.ws[n-1], idle.ws[:n-1]
	} else {
		idle.created++
	}
	idle.Unlock()
	if w == nil {
		w = &worker{}
		w.next, _ = iter.Pull(w.loop)
	}
	w.start(id, inc, recovery, prog)
	return w
}

func (w *worker) start(id, inc int, recovery RecoveryProc, prog Program) {
	w.ctx = Ctx{id: id, inc: inc, w: w}
	w.recovery, w.prog = recovery, prog
}

// send yields m to the runtime, unless the job is being cancelled.
func (w *worker) send(m message) {
	if !w.abort {
		w.msg = m
		w.yield(&w.msg)
	}
}

// cancel unwinds a job parked mid-run: Invoke panics abortSignal and
// marks are dropped until the job ends at the outer yield.
func (w *worker) cancel() {
	w.abort = true
	w.next()
	w.abort = false
}

// release cancels the job if it is still parked mid-run, then returns
// the worker to the idle list.
func (w *worker) release() {
	if k := w.msg.kind; k == msgInvoke || k == msgMark {
		w.cancel()
	}
	w.msg, w.ctx, w.recovery, w.prog = message{}, Ctx{}, nil, nil
	idle.Lock()
	idle.ws = append(idle.ws, w)
	idle.Unlock()
}

// loop is the coroutine body: one job per iteration, each ending at the
// outer yield, where the worker parks until its next job.
func (w *worker) loop(yield func(*message) bool) {
	w.yield = yield
	for ok := true; ok; ok = yield(&w.msg) {
		w.run()
	}
}

// run executes the current job and leaves its final message in w.msg.
func (w *worker) run() {
	defer func() {
		if r := recover(); r != nil {
			w.msg = message{kind: msgPanic, err: r}
		}
		if w.abort {
			// Whatever the program did after the abort (recovered it,
			// returned, panicked again), the job was aborted.
			w.msg = message{}
		}
	}()
	if w.ctx.inc > 0 && w.recovery != nil {
		w.recovery(&w.ctx)
	}
	w.msg = message{kind: msgDone, out: w.prog(&w.ctx)}
}
