// Package hangok parks over-budget callers via the hang path, as the
// bounded-use model requires; the hangsemantics rule must accept it.
package hangok

import "detobj/internal/sim"

// Bounded hangs the caller once its budget is spent.
type Bounded struct {
	budget int
}

// Apply implements sim.Object.
func (b *Bounded) Apply(_ *sim.Env, _ sim.Invocation) sim.Response {
	if b.budget == 0 {
		return sim.HangCaller()
	}
	b.budget--
	return sim.Respond(b.budget)
}
