// Package native provides production-ready, goroutine-safe
// implementations of the paper's objects for real concurrent Go programs
// — the deployable counterpart of the simulator-backed packages.
//
// The simulator (package detobj and internal/sim) exists to *verify* the
// algorithms under adversarial schedules, exhaustive model checking and
// linearizability analysis; this package carries the verified designs
// into ordinary Go code: a WriteAndReadNext object is a mutex-protected
// cell ring (each operation is a single critical section, hence
// linearizable), and the set-consensus protocols are the paper's
// Algorithms 2 and 6 run by real goroutines.
//
// One deliberate deviation from the paper's model: an illegal operation
// on a one-shot object (reusing an index) cannot "hang the system
// undetectably" in a real program, so it returns ErrIndexUsed instead.
package native

import (
	"errors"
	"fmt"
	"sync"
)

// Bottom is the distinguished ⊥ value held by untouched WRN cells.
var Bottom any = bottom{}

type bottom struct{}

// String implements fmt.Stringer.
func (bottom) String() string { return "⊥" }

// IsBottom reports whether v is the distinguished ⊥ value.
func IsBottom(v any) bool {
	_, ok := v.(bottom)
	return ok
}

// Errors returned by the one-shot objects.
var (
	// ErrIndexUsed reports a second operation on a one-shot index.
	ErrIndexUsed = errors.New("native: one-shot index already used")
	// ErrBadIndex reports an index outside [0, k).
	ErrBadIndex = errors.New("native: index out of range")
	// ErrBadValue reports a ⊥ or nil value.
	ErrBadValue = errors.New("native: value must not be nil or ⊥")
)

// WRN is a goroutine-safe WriteAndReadNext object WRN_k (paper §3,
// Algorithm 1): WRN(i, v) atomically writes v into cell i and returns the
// previous content of cell (i+1) mod k.
type WRN struct {
	mu sync.Mutex
	// Installed via SetInjector before the object is shared (documented
	// contract); hot-path reads see nil or the fully built injector.
	inj   Injector
	cells []any
}

// NewWRN returns a fresh WRN_k object; k must be at least 2.
func NewWRN(k int) *WRN {
	if k < 2 {
		panic(fmt.Sprintf("native: NewWRN(%d), need k >= 2", k))
	}
	cells := make([]any, k)
	for i := range cells {
		cells[i] = Bottom
	}
	return &WRN{cells: cells}
}

// K returns the object's arity.
func (w *WRN) K() int { return len(w.cells) }

// SetInjector installs a chaos injector on the object's hot path (nil
// removes it). Call before sharing the object between goroutines.
func (w *WRN) SetInjector(inj Injector) { w.inj = inj }

// WRN performs the atomic write-and-read-next operation.
func (w *WRN) WRN(i int, v any) (any, error) {
	if i < 0 || i >= len(w.cells) {
		return nil, fmt.Errorf("%w: %d outside [0,%d)", ErrBadIndex, i, len(w.cells))
	}
	if v == nil || IsBottom(v) {
		return nil, ErrBadValue
	}
	if err := chaosPoint(w.inj, "wrn.enter", i); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Inside the critical section, before the write: an abort here leaves
	// the object untouched; a stall here exercises lock contention.
	if err := chaosPoint(w.inj, "wrn.locked", i); err != nil {
		return nil, err
	}
	w.cells[i] = v
	return w.cells[(i+1)%len(w.cells)], nil
}

// OneShotWRN is a goroutine-safe 1sWRN_k: each index is usable at most
// once; reuse returns ErrIndexUsed.
type OneShotWRN struct {
	mu sync.Mutex
	// Installed via SetInjector before the object is shared (documented
	// contract); hot-path reads see nil or the fully built injector.
	inj   Injector
	cells []any
	used  []bool
}

// NewOneShotWRN returns a fresh 1sWRN_k object; k must be at least 2.
func NewOneShotWRN(k int) *OneShotWRN {
	if k < 2 {
		panic(fmt.Sprintf("native: NewOneShotWRN(%d), need k >= 2", k))
	}
	cells := make([]any, k)
	for i := range cells {
		cells[i] = Bottom
	}
	return &OneShotWRN{cells: cells, used: make([]bool, k)}
}

// K returns the object's arity.
func (w *OneShotWRN) K() int { return len(w.cells) }

// SetInjector installs a chaos injector on the object's hot path (nil
// removes it). Call before sharing the object between goroutines.
func (w *OneShotWRN) SetInjector(inj Injector) { w.inj = inj }

// WRN performs the one-shot write-and-read-next operation.
func (w *OneShotWRN) WRN(i int, v any) (any, error) {
	if i < 0 || i >= len(w.cells) {
		return nil, fmt.Errorf("%w: %d outside [0,%d)", ErrBadIndex, i, len(w.cells))
	}
	if v == nil || IsBottom(v) {
		return nil, ErrBadValue
	}
	if err := chaosPoint(w.inj, "oneshot.enter", i); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.used[i] {
		// Documented deviation (see package doc): a real goroutine cannot
		// be parked undetectably, so reuse surfaces as ErrIndexUsed
		// instead of the model's hang.
		return nil, fmt.Errorf("%w: index %d", ErrIndexUsed, i)
	}
	if err := chaosPoint(w.inj, "oneshot.locked", i); err != nil {
		return nil, err
	}
	w.used[i] = true
	w.cells[i] = v
	return w.cells[(i+1)%len(w.cells)], nil
}

// SetConsensus is the paper's Algorithm 6 for real goroutines: m-set
// consensus for n participants with ids 0..n−1, built from ⌈n/k⌉ one-shot
// WRN_k objects. Each id may propose at most once.
type SetConsensus struct {
	n, k int
	// Installed via SetInjector before Propose races (documented
	// contract); reads see nil or the fully built injector.
	inj       Injector
	instances []*OneShotWRN
}

// NewSetConsensus returns a protocol instance for n participants with
// arity parameter k ≥ 2. Its agreement guarantee is Guarantee().
func NewSetConsensus(n, k int) *SetConsensus {
	if n < 1 || k < 2 {
		panic(fmt.Sprintf("native: NewSetConsensus(%d,%d)", n, k))
	}
	groups := (n + k - 1) / k
	instances := make([]*OneShotWRN, groups)
	for g := range instances {
		instances[g] = NewOneShotWRN(k)
	}
	return &SetConsensus{n: n, k: k, instances: instances}
}

// Guarantee returns the protocol's agreement bound: at most
// ⌊n/k⌋·(k−1) + (n mod k) distinct decisions (§7.1).
func (s *SetConsensus) Guarantee() int {
	return (s.n/s.k)*(s.k-1) + s.n%s.k
}

// SetInjector installs a chaos injector on the protocol and every
// underlying WRN instance (nil removes it). Call before Propose races.
func (s *SetConsensus) SetInjector(inj Injector) {
	s.inj = inj
	for _, w := range s.instances {
		w.SetInjector(inj)
	}
}

// Propose submits participant id's value and returns its decision:
// either its own proposal or that of its ring successor (Algorithm 2
// within the participant's group).
func (s *SetConsensus) Propose(id int, v any) (any, error) {
	if id < 0 || id >= s.n {
		return nil, fmt.Errorf("%w: participant %d outside [0,%d)", ErrBadIndex, id, s.n)
	}
	if err := chaosPoint(s.inj, "setconsensus.propose", id); err != nil {
		return nil, err
	}
	t, err := s.instances[id/s.k].WRN(id%s.k, v)
	if err != nil {
		return nil, err
	}
	if IsBottom(t) {
		return v, nil
	}
	return t, nil
}
