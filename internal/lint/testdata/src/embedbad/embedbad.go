// Package embedbad seeds an interface dispatch that resolves through a
// *promoted* method: Obj.Propose calls Stepper.Step on a value whose
// Step comes from an embedded struct. Base alone does not implement
// Stepper (it lacks Name), so a fan-out indexed by declared methods
// never reaches Base.Step. The callgraph must enumerate implementing
// *types* and resolve the promotion.
package embedbad

// Stepper needs two methods; only the embedding Full type provides
// both.
type Stepper interface {
	Step() int
	Name() string
}

// Base provides Step for whoever embeds it.
type Base struct {
	n int
}

// Step reads the base state.
func (b *Base) Step() int { return b.n }

// Full implements Stepper via the embedded Base.
type Full struct {
	Base
	label string
}

// Name completes the interface.
func (f *Full) Name() string { return f.label }

// Obj dispatches through the interface.
type Obj struct {
	s Stepper
}

// Propose drives the stepper; Base.Step is reachable from here only
// through the promoted method.
func (o *Obj) Propose(v int) int {
	if o.s == nil {
		return v
	}
	return o.s.Step()
}
