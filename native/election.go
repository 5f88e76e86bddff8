package native

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file carries the paper's Algorithm 3 into real concurrent Go: a
// goroutine-safe coordinator-election protocol for at most K participants
// drawn from a name space of M node identities. It composes, natively,
// every layer the simulator verified: an atomic snapshot (mutex-guarded),
// wait-free rank renaming into {0..2K−2}, the covering family of index
// mappings, relaxed WRN wrappers (atomic flag counters), and one-shot
// WRN_K instances.

// snapshot is a mutex-guarded atomic snapshot.
type snapshot struct {
	mu    sync.Mutex
	cells []any
}

func newSnapshot(n int) *snapshot {
	return &snapshot{cells: make([]any, n)}
}

func (s *snapshot) update(i int, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells[i] = v
}

func (s *snapshot) scan() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]any, len(s.cells))
	copy(out, s.cells)
	return out
}

// renameSlot is a renaming announcement.
type renameSlot struct {
	id   int
	prop int
}

// rename acquires a name in {0..2K−2} for the participant with original
// id, by snapshot-based rank renaming (at most K concurrent participants).
// An abort at either chaos point models a crash mid-renaming: the
// participant's announcement stays in the snapshot for everyone else to
// see, but it never acquires a name.
func rename(snap *snapshot, inj Injector, id int) (int, error) {
	prop := 1
	for {
		if err := chaosPoint(inj, "election.rename.update", id); err != nil {
			return 0, err
		}
		snap.update(id, renameSlot{id: id, prop: prop})
		if err := chaosPoint(inj, "election.rename.scan", id); err != nil {
			return 0, err
		}
		view := snap.scan()
		conflict := false
		var ids []int
		taken := map[int]bool{}
		for slot, raw := range view {
			if raw == nil {
				continue
			}
			ann := raw.(renameSlot)
			ids = append(ids, ann.id)
			if slot == id {
				continue
			}
			taken[ann.prop] = true
			if ann.prop == prop {
				conflict = true
			}
		}
		if !conflict {
			return prop - 1, nil
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

// relaxedWRN is Algorithm 4 natively: one atomic flag counter per index
// guarding a one-shot WRN_K instance.
type relaxedWRN struct {
	counters []atomic.Int32
	wrn      *OneShotWRN
}

func newRelaxedWRN(k int) *relaxedWRN {
	return &relaxedWRN{counters: make([]atomic.Int32, k), wrn: NewOneShotWRN(k)}
}

// rlx performs RlxWRN(i, v): only the counter's sole incrementer reaches
// the one-shot object; everyone else gets ⊥. An abort between winning
// the counter and writing the one-shot object is the protocol's worst
// partial state: the index is burned but carries no value — exactly the
// crash the relaxed semantics (⊥ answers) must absorb.
func (r *relaxedWRN) rlx(inj Injector, id, i int, v any) (any, error) {
	if r.counters[i].Add(1) == 1 {
		if err := chaosPoint(inj, "election.rlx.won", id); err != nil {
			return nil, err
		}
		return r.wrn.WRN(i, v)
	}
	return Bottom, nil
}

// Election is the paper's Algorithm 3 for real goroutines: at most K
// participants, drawn from node identities {0..M−1}, each propose a value
// and decide at most K−1 distinct values (with identity proposals: at
// most K−1 coordinators).
type Election struct {
	k, m int
	// Installed via SetInjector before Propose races (documented
	// contract); reads see nil or the fully built injector.
	inj       Injector
	snap      *snapshot
	family    [][]int // covering family: one mapping per K-subset of {0..2K−2}
	instances []*relaxedWRN
	proposed  []atomic.Bool
}

// NewElection returns a protocol instance for at most k concurrent
// participants from a name space of m identities; k must be at least 2
// and m at least k.
func NewElection(k, m int) *Election {
	if k < 2 || m < k {
		panic(fmt.Sprintf("native: NewElection(%d,%d), need k >= 2 and m >= k", k, m))
	}
	e := &Election{
		k:        k,
		m:        m,
		snap:     newSnapshot(m),
		family:   coveringFamily(k),
		proposed: make([]atomic.Bool, m),
	}
	e.instances = make([]*relaxedWRN, len(e.family))
	for l := range e.instances {
		e.instances[l] = newRelaxedWRN(k)
	}
	return e
}

// K returns the participant bound; at most K−1 distinct decisions result.
func (e *Election) K() int { return e.k }

// SetInjector installs a chaos injector on the protocol and every layer
// beneath it — renaming, the relaxed wrappers and the one-shot WRN
// instances (nil removes it). Call before Propose races.
func (e *Election) SetInjector(inj Injector) {
	e.inj = inj
	for _, r := range e.instances {
		r.wrn.SetInjector(inj)
	}
}

// Propose runs Algorithm 3 for the node with identity id and proposal v.
// Each identity may propose at most once per instance.
func (e *Election) Propose(id int, v any) (any, error) {
	if id < 0 || id >= e.m {
		return nil, fmt.Errorf("%w: identity %d outside [0,%d)", ErrBadIndex, id, e.m)
	}
	if v == nil || IsBottom(v) {
		return nil, ErrBadValue
	}
	if e.proposed[id].Swap(true) {
		// Documented deviation (see package doc): outside the simulator a
		// hang is just a deadlock, so re-proposal surfaces as
		// ErrIndexUsed.
		return nil, fmt.Errorf("%w: identity %d already proposed", ErrIndexUsed, id)
	}
	// An abort here crashes the participant after its identity is burned
	// but before it touches any shared protocol state.
	if err := chaosPoint(e.inj, "election.propose", id); err != nil {
		return nil, err
	}
	name, err := rename(e.snap, e.inj, id)
	if err != nil {
		return nil, err
	}
	for l, mapping := range e.family {
		if err := chaosPoint(e.inj, "election.round", id); err != nil {
			return nil, err
		}
		t, err := e.instances[l].rlx(e.inj, id, mapping[name], v)
		if err != nil {
			return nil, err
		}
		if !IsBottom(t) {
			return t, nil
		}
	}
	return v, nil
}

// coveringFamily builds one mapping {0..2k−2}→{0..k−1} per k-subset,
// sending the subset's members to their ranks and everything else to 0.
func coveringFamily(k int) [][]int {
	var family [][]int
	idx := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			f := make([]int, 2*k-1)
			for rank, j := range idx {
				f[j] = rank
			}
			family = append(family, f)
			return
		}
		for v := start; v <= (2*k-1)-(k-pos); v++ {
			idx[pos] = v
			rec(v+1, pos+1)
		}
	}
	rec(0, 0)
	return family
}
