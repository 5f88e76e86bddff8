package native

// Bounded wrappers: graceful degradation for the model's
// hang-on-exhaustion semantics. In the paper an exhausted or illegal
// operation hangs the caller undetectably; a real service cannot afford
// an undetectable hang, so the Bounded layer converts every way an
// operation can fail to make progress — a chaos abort, a starved
// goroutine, a burned one-shot index, a context deadline — into one
// typed, checkable error: ErrExhausted. The wrappers never hang and
// never invent a new failure mode: an operation either returns its
// normal result, a validation error (ErrBadIndex / ErrBadValue), or
// ErrExhausted.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
)

// ErrExhausted reports that a bounded operation ran out of budget —
// retry attempts, context deadline, or the underlying object's one-shot
// capacity. It is the native face of the model's hang-on-exhaustion:
// where the simulator parks the caller forever, the Bounded wrappers
// return this error instead. This sentinel IS the documented
// hang-vs-error boundary (see DESIGN.md).
var ErrExhausted = errors.New("native: operation budget exhausted")

// Budget bounds one native operation.
type Budget struct {
	// Attempts is the maximum number of tries of the underlying
	// operation; 0 means 1 (no retry).
	Attempts int
	// Backoff is the number of cooperative yields between the first and
	// second attempt; it doubles after every retry. 0 means no backoff.
	Backoff int
}

// tries returns the attempt bound with the zero-value default applied.
func (b Budget) tries() int {
	if b.Attempts <= 0 {
		return 1
	}
	return b.Attempts
}

// retryable reports whether err is transient: worth retrying under the
// remaining budget. Only chaos aborts are — a crashed attempt may have
// left no decision, and re-running the operation is the recovery path.
func retryable(err error) bool { return errors.Is(err, ErrAborted) }

// exhaustion reports whether err means the object itself has no
// capacity left (a bounded-use condition retries cannot cure).
func exhaustion(err error) bool {
	return errors.Is(err, ErrIndexUsed)
}

// BoundedDo runs op under the budget and the context's deadline. It
// returns op's result on success; ErrExhausted (wrapping the cause) when
// the attempt budget is spent, the context is done, or the object
// reports a bounded-use condition; and any other error verbatim.
//
// Each attempt runs in its own goroutine so a stalled attempt cannot
// outlive the deadline; an attempt that loses the race against the
// context may still take effect afterwards (an abandoned crash-like
// attempt, consistent with the model's crashed processes whose writes
// remain visible).
func BoundedDo(ctx context.Context, b Budget, op func() (any, error)) (any, error) {
	type outcome struct {
		v   any
		err error
	}
	backoff := b.Backoff
	var last error
	for attempt := 0; attempt < b.tries(); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExhausted, err)
		}
		ch := make(chan outcome, 1)
		go func() {
			v, err := op()
			ch <- outcome{v, err}
		}()
		select {
		case out := <-ch:
			switch {
			case out.err == nil:
				return out.v, nil
			case exhaustion(out.err):
				return nil, fmt.Errorf("%w: %v", ErrExhausted, out.err)
			case retryable(out.err):
				last = out.err
			default:
				return nil, out.err
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", ErrExhausted, ctx.Err())
		}
		for i := 0; i < backoff; i++ {
			runtime.Gosched()
		}
		backoff *= 2
	}
	return nil, fmt.Errorf("%w: %d attempt(s) failed, last: %v", ErrExhausted, b.tries(), last)
}

// BoundedWRN is a WRN with bounded-wait operations.
type BoundedWRN struct {
	W *WRN
	B Budget
}

// WRN is the write-and-read-next operation under the budget.
func (b BoundedWRN) WRN(ctx context.Context, i int, v any) (any, error) {
	return BoundedDo(ctx, b.B, func() (any, error) { return b.W.WRN(i, v) })
}

// BoundedOneShotWRN is a OneShotWRN with bounded-wait operations; index
// reuse surfaces as ErrExhausted rather than the model's hang.
type BoundedOneShotWRN struct {
	W *OneShotWRN
	B Budget
}

// WRN is the one-shot write-and-read-next operation under the budget.
func (b BoundedOneShotWRN) WRN(ctx context.Context, i int, v any) (any, error) {
	return BoundedDo(ctx, b.B, func() (any, error) { return b.W.WRN(i, v) })
}

// BoundedSetConsensus is a SetConsensus with bounded-wait Propose.
type BoundedSetConsensus struct {
	S *SetConsensus
	B Budget
}

// Propose submits id's value under the budget.
func (b BoundedSetConsensus) Propose(ctx context.Context, id int, v any) (any, error) {
	return BoundedDo(ctx, b.B, func() (any, error) { return b.S.Propose(id, v) })
}

// BoundedElection is an Election with bounded-wait Propose. A retried
// attempt whose predecessor crashed after burning the identity reports
// ErrExhausted — the participant is gone as far as the protocol is
// concerned, and the wrapper says so instead of hanging.
type BoundedElection struct {
	E *Election
	B Budget
}

// Propose runs Algorithm 3 for identity id under the budget.
func (b BoundedElection) Propose(ctx context.Context, id int, v any) (any, error) {
	return BoundedDo(ctx, b.B, func() (any, error) { return b.E.Propose(id, v) })
}
