// Package purityok implements a sim.Object that stays within the purity
// contract: arguments are indexed, ranged and measured but the slice is
// never retained, and all state lives in the receiver.
package purityok

import "detobj/internal/sim"

// Copying is the pure object.
type Copying struct {
	vals []sim.Value
	n    int
}

// Apply implements sim.Object.
func (c *Copying) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if len(inv.Args) == 0 {
		return sim.Respond(c.n)
	}
	for _, v := range inv.Args {
		c.vals = append(c.vals, v)
	}
	c.n++
	return sim.Respond(inv.Args[0])
}
