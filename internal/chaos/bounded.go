package chaos

// Bounded: the simulator side of graceful degradation. The model says
// an exhausted or illegal operation hangs the caller undetectably;
// Bounded is the one sanctioned crossing of that boundary. It wraps any
// sim.Object and converts the two ways a caller can lose progress —
// the inner object hanging it, or the caller exceeding a per-process
// step budget — into a returned native.ErrExhausted value the program
// can branch on. Deciding to degrade detectably changes the object's
// power (errors are observable, hangs are not; see DESIGN.md), which is
// why the conversion lives here, in the chaos layer, and not in the
// objects themselves.

import (
	"detobj/internal/sim"
	"detobj/native"
)

// ErrExhausted is the typed exhaustion error shared by both substrates;
// it is native.ErrExhausted, so errors.Is works across the facade.
var ErrExhausted = native.ErrExhausted

// Bounded wraps a sim.Object with a per-process step budget and
// hang-to-error conversion. It is deterministic: the same run yields
// the same budgets spent and the same degradations.
type Bounded struct {
	inner  sim.Object
	budget int
	used   map[int]int
}

// NewBounded wraps inner. budget bounds the number of steps each
// process may apply through the wrapper; 0 means unlimited (only
// hang-to-error conversion remains).
func NewBounded(inner sim.Object, budget int) *Bounded {
	return &Bounded{inner: inner, budget: budget, used: make(map[int]int)}
}

// Apply implements sim.Object: over-budget callers and callers the
// inner object would hang receive ErrExhausted as their result value
// instead of parking forever.
func (b *Bounded) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	if b.budget > 0 {
		b.used[env.Proc]++
		if b.used[env.Proc] > b.budget {
			return sim.Respond(ErrExhausted)
		}
	}
	resp := b.inner.Apply(env, inv)
	if resp.Effect == sim.Hang {
		return sim.Respond(ErrExhausted)
	}
	return resp
}

// Exhausted reports whether a value returned through a Bounded wrapper
// is the typed exhaustion error.
func Exhausted(v sim.Value) bool {
	err, ok := v.(error)
	return ok && err == ErrExhausted
}
