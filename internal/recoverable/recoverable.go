// Package recoverable implements object variants for the amnesiac
// crash-restart model ("Determining Recoverable Consensus Numbers",
// Ovens 2024; see PAPERS.md): processes may crash, losing all volatile
// state, and later restart from the top of their program behind a
// recovery procedure, while shared base objects live in non-volatile
// memory.
//
// The package's objects split their state explicitly along the
// sim.Recoverable seam:
//
//   - Register models the persist-pending store queue of real
//     non-volatile memory: writes stage in a volatile per-process
//     buffer and become durable only on an explicit persist, so a crash
//     between write and persist silently drops the write.
//   - Scratch is an all-volatile per-process scratchpad: process-local
//     state routed through the simulator so crashes wipe it
//     deterministically (and observably, in the trace).
//   - TestAndSet is a recoverable test-and-set: it durably records the
//     winner's identity, making "tas" idempotent per process, so a
//     restarted winner re-learns its win — the information a plain
//     test-and-set loses, which is exactly why the plain object's
//     consensus power collapses under amnesiac restart (E20).
//   - WRN (wrn.go) is a recoverable WRN_k built from a durable
//     journaled core plus a volatile response cache, with a recovery
//     procedure that re-derives the cache from the journal.
//
// TestCrashContract (crash_test.go) pins, for each of these objects,
// exactly which state survives a crash.
//
// protocols.go builds the 2-process consensus protocols E20 calibrates:
// identical protocol shape, plain vs. recoverable racing object, so any
// verdict difference is attributable to the object alone.
package recoverable

import (
	"fmt"
	"sort"
	"strings"

	"detobj/internal/sim"
)

// Register is a recoverable register with explicit persistence: "write"
// stages a value in the calling process's volatile buffer, "persist"
// makes the staged value durable, and "read" returns the last durable
// value. A crash drops the caller's staged value; durable contents
// survive. (Writes are process-private until persisted, mirroring a
// write-behind cache whose lines are lost on power failure.)
type Register struct {
	durable sim.Value         // durable: the non-volatile cell itself — the value "persist" committed
	buf     map[int]sim.Value // volatile: per-process staged writes; a crash drops the crashed caller's entry
}

// NewRegister returns a recoverable register durably holding initial.
func NewRegister(initial sim.Value) *Register {
	return &Register{durable: initial}
}

// Apply implements sim.Object with operations "write"(v), "persist" and
// "read".
func (r *Register) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "write":
		if r.buf == nil {
			r.buf = make(map[int]sim.Value)
		}
		r.buf[env.Proc] = inv.Arg(0)
		return sim.Respond(nil)
	case "persist":
		if v, ok := r.buf[env.Proc]; ok {
			r.durable = v
			delete(r.buf, env.Proc)
		}
		return sim.Respond(r.durable)
	case "read":
		return sim.Respond(r.durable)
	}
	panic(fmt.Sprintf("recoverable: unknown register operation %q", inv.Op))
}

// OnCrash implements sim.Recoverable: the crashed process's staged write
// is lost.
func (r *Register) OnCrash(proc int) { delete(r.buf, proc) }

// StateKey renders the full (durable + staged) state for the model
// checker's indistinguishability engine.
func (r *Register) StateKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d=%v", r.durable)
	procs := make([]int, 0, len(r.buf))
	for p := range r.buf {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		fmt.Fprintf(&b, " b%d=%v", p, r.buf[p])
	}
	return b.String()
}

// CloneObject deep-copies the register.
func (r *Register) CloneObject() sim.Object {
	c := &Register{durable: r.durable}
	if len(r.buf) > 0 {
		c.buf = make(map[int]sim.Value, len(r.buf))
		for p, v := range r.buf {
			c.buf[p] = v
		}
	}
	return c
}

// RegisterRef is a typed handle to a Register registered under Name.
type RegisterRef struct {
	Name string
}

// Write stages v in the caller's volatile buffer (one atomic step).
func (r RegisterRef) Write(ctx *sim.Ctx, v sim.Value) { ctx.Invoke(r.Name, "write", v) }

// Persist makes the caller's staged value durable and returns the
// durable value (one atomic step).
func (r RegisterRef) Persist(ctx *sim.Ctx) sim.Value { return ctx.Invoke(r.Name, "persist") }

// Read returns the last durable value (one atomic step).
func (r RegisterRef) Read(ctx *sim.Ctx) sim.Value { return ctx.Invoke(r.Name, "read") }

// Scratch is an all-volatile per-process scratchpad: "put"(v) stores v
// in the caller's slot, "get" returns it (nil if empty). A crash clears
// the crashed process's slot. Algorithm code routes volatile local state
// it wants under the fault model's control through a Scratch, so the
// runtime wipes it deterministically and the loss is visible in the
// trace.
type Scratch struct {
	slots map[int]sim.Value // volatile: the scratchpad exists to be wiped; every slot dies with its process
}

// NewScratch returns an empty scratchpad.
func NewScratch() *Scratch { return &Scratch{} }

// Apply implements sim.Object with operations "put"(v) and "get".
func (s *Scratch) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "put":
		if s.slots == nil {
			s.slots = make(map[int]sim.Value)
		}
		s.slots[env.Proc] = inv.Arg(0)
		return sim.Respond(nil)
	case "get":
		return sim.Respond(s.slots[env.Proc])
	}
	panic(fmt.Sprintf("recoverable: unknown scratch operation %q", inv.Op))
}

// OnCrash implements sim.Recoverable: everything in the crashed
// process's slot is volatile.
func (s *Scratch) OnCrash(proc int) { delete(s.slots, proc) }

// TestAndSet is a recoverable test-and-set: the winner's identity is
// durable, and "tas" is idempotent per process — the recorded winner
// wins again on re-invocation, so a restarted winner re-learns its win
// instead of being misreported as a loser. "winner" returns the
// recorded winner id, or -1 if the object is still unset (the recovery
// read). Contrast consensus.TestAndSet, whose set flag is durable but
// whose win/lose answer exists only in the (volatile) local state of
// whoever received it.
type TestAndSet struct {
	winner int // durable: the winner's identity is the whole point; it must survive so a restarted winner re-learns its win
}

// NewTestAndSet returns a fresh recoverable test-and-set.
func NewTestAndSet() *TestAndSet { return &TestAndSet{winner: -1} }

// Apply implements sim.Object with operations "tas" (0 = caller won,
// idempotent per process) and "winner".
func (t *TestAndSet) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "tas":
		if t.winner == -1 {
			t.winner = env.Proc
		}
		if t.winner == env.Proc {
			return sim.Respond(0)
		}
		return sim.Respond(1)
	case "winner":
		return sim.Respond(t.winner)
	}
	panic(fmt.Sprintf("recoverable: unknown test-and-set operation %q", inv.Op))
}

// OnCrash implements sim.Recoverable as a no-op: every field of the
// recoverable test-and-set is deliberately durable.
func (t *TestAndSet) OnCrash(proc int) {}

// StateKey renders the state for the model checker.
func (t *TestAndSet) StateKey() string { return fmt.Sprintf("w=%d", t.winner) }

// CloneObject copies the object.
func (t *TestAndSet) CloneObject() sim.Object { return &TestAndSet{winner: t.winner} }

// TASRef is a typed handle to a recoverable TestAndSet registered under
// Name.
type TASRef struct {
	Name string
}

// TAS races for the object; 0 means the caller won (now or in a
// previous incarnation).
func (r TASRef) TAS(ctx *sim.Ctx) int { return ctx.Invoke(r.Name, "tas").(int) }

// Winner returns the recorded winner id, or -1 if unset.
func (r TASRef) Winner(ctx *sim.Ctx) int { return ctx.Invoke(r.Name, "winner").(int) }
