// Package renaming implements wait-free one-shot M-to-(2k−1) renaming from
// registers, the substrate Algorithm 3 needs to shrink names from a large
// space {0..M−1} to {0..2k−2} for at most k participants (paper §4.2,
// citing Afek–Merritt and Attiya–Fouren).
//
// The algorithm is the classic snapshot-based rank renaming: a process
// announces (id, proposal) in its slot, snapshots, and if its proposal
// collides with another participant's it re-proposes the r-th smallest
// name not proposed by others, where r is the rank of its id among the
// participants it sees. Since r ≤ k and at most k−1 names are held by
// others, every proposal — including the final one — is at most 2k−1, and
// the one-shot protocol is wait-free.
//
// The protocol runs over an atomic snapshot; package snapshot separately
// witnesses that snapshots are implementable from registers, so renaming
// uses register power only.
package renaming

import (
	"sort"

	"detobj/internal/sim"
	"detobj/internal/snapshot"
)

// slot is the announcement a participant publishes: its original id and
// its current proposal (1-based; 0 means "not yet proposing").
type slot struct {
	ID   int
	Prop int
}

// Protocol is a one-shot renaming instance for original names {0..M−1}.
// At most k participants may call GetName concurrently for the 2k−1 bound
// to apply; the protocol itself is safe for any number.
type Protocol struct {
	snap snapshot.Snapshotter
	m    int
}

// New registers the protocol's shared state (one snapshot slot per
// original name) under name and returns the protocol handle.
func New(objects map[string]sim.Object, name string, m int) Protocol {
	return Protocol{snap: snapshot.NewObjectHandle(objects, name, m, nil), m: m}
}

// M returns the size of the original name space.
func (p Protocol) M() int { return p.m }

// GetName acquires a new name for the participant with original name id.
// With at most k concurrent participants the result lies in {0..2k−2} and
// is distinct from every other participant's result.
func (p Protocol) GetName(ctx *sim.Ctx, id int) int {
	prop := 1
	for {
		p.snap.Update(ctx, id, slot{ID: id, Prop: prop})
		view := p.snap.Scan(ctx)
		conflict := false
		var ids []int
		taken := make(map[int]bool)
		for s, v := range view {
			if v == nil {
				continue
			}
			ann := v.(slot)
			ids = append(ids, ann.ID)
			if s == id {
				continue
			}
			taken[ann.Prop] = true
			if ann.Prop == prop {
				conflict = true
			}
		}
		if !conflict {
			return prop - 1
		}
		sort.Ints(ids)
		rank := 1
		for _, other := range ids {
			if other < id {
				rank++
			}
		}
		prop = nthFree(taken, rank)
	}
}

// nthFree returns the r-th smallest positive integer absent from taken.
func nthFree(taken map[int]bool, r int) int {
	n := 0
	// Terminates within len(taken)+r iterations: taken holds finitely many
	// keys, so at most len(taken) candidates are skipped before r free
	// ones appear.
	for candidate := 1; ; candidate++ {
		if !taken[candidate] {
			n++
			if n == r {
				return candidate
			}
		}
	}
}

// Program returns a sim.Program in which the participant with original
// name id acquires and returns a new name.
func (p Protocol) Program(id int) sim.Program {
	return func(ctx *sim.Ctx) sim.Value {
		return p.GetName(ctx, id)
	}
}

// NewFromRegisters registers the protocol's shared state as an AADGMS
// snapshot implementation over single-writer registers — the fully
// register-backed variant, matching the paper's "using registers only"
// hypothesis end to end.
func NewFromRegisters(objects map[string]sim.Object, name string, m int) Protocol {
	return Protocol{snap: snapshot.NewImpl(objects, name, m, nil), m: m}
}
