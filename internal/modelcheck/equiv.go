package modelcheck

import (
	"fmt"
	"sort"

	"detobj/internal/sim"
)

// Finite is a deterministic object with an enumerable state space:
// serializable state and deep copies. The registers, wrn and consensus
// packages implement it for their objects. StateKey and CloneObject must
// be read-only on the receiver: the checker calls both on states it
// keeps (Apply is only ever invoked on a fresh clone).
type Finite interface {
	sim.Object
	// StateKey serializes the current state; equal keys mean equal states.
	StateKey() string
	// CloneObject returns a deep copy; the result must itself be Finite.
	CloneObject() sim.Object
}

// stepFinite applies inv to a copy of s and returns (successor, rendered
// output). A hang is rendered as the distinguished token and leaves the
// state unchanged (the operation never completes).
func stepFinite(s Finite, inv sim.Invocation) (Finite, string) {
	next := s.CloneObject().(Finite)
	resp := next.Apply(&sim.Env{}, inv)
	if resp.Effect == sim.Hang {
		return s, hangToken
	}
	return next, renderValue(resp.Value)
}

// transition is one cell of the precomputed step table: the successor
// state and the interned output token of applying one alphabet operation
// in one reachable state. It is deliberately flat — two int32 indices,
// no interior pointers — because it is the seed of the ROADMAP's arena
// encoding for the state-space engines.
type transition struct {
	// succ indexes the sorted state list.
	succ int32
	// out indexes the interned output-token list.
	out int32
}

// stateTable is the transition system of a reachable state space,
// precomputed once: states in sorted-key order, rows[i][j] the result of
// alphabet[j] in state i, outputs interned into outs. Every downstream
// analysis — partition refinement and the Lemma 38 pair sweep — runs on
// these int32 indices instead of re-cloning objects and re-rendering
// outputs per visit, which is what held E6 at ~1M allocs per run.
type stateTable struct {
	keys     []string
	states   []Finite
	alphabet []sim.Invocation
	rows     [][]transition
	outs     []string
	// hang is the interned index of hangToken, or -1 if no operation
	// hangs anywhere in the table.
	hang int32
}

// buildTable precomputes the transition table over the reachable states,
// interning outputs in (state, alphabet) order.
func buildTable(states map[string]Finite, alphabet []sim.Invocation) *stateTable {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	index := make(map[string]int32, len(keys))
	for i, k := range keys {
		index[k] = int32(i)
	}
	t := &stateTable{
		keys:     keys,
		states:   make([]Finite, len(keys)),
		alphabet: alphabet,
		rows:     make([][]transition, len(keys)),
		hang:     -1,
	}
	interned := make(map[string]int32)
	for i, k := range keys {
		s := states[k]
		t.states[i] = s
		row := make([]transition, len(alphabet))
		for j, inv := range alphabet {
			succ, out := stepFinite(s, inv)
			id, ok := interned[out]
			if !ok {
				id = int32(len(t.outs))
				interned[out] = id
				t.outs = append(t.outs, out)
				if out == hangToken {
					t.hang = id
				}
			}
			row[j] = transition{succ: index[succ.StateKey()], out: id}
		}
		t.rows[i] = row
	}
	return t
}

// Reachable returns all states reachable from init by applying operations
// from alphabet, keyed by StateKey. maxStates guards against unbounded
// spaces (0 means 1<<16).
func Reachable(init Finite, alphabet []sim.Invocation, maxStates int) (map[string]Finite, error) {
	return reachableN(init, alphabet, maxStates)
}

// reachableN is the breadth-first reachability sweep behind Reachable,
// deduplicating successors in (frontier index, alphabet index) order.
func reachableN(init Finite, alphabet []sim.Invocation, maxStates int) (map[string]Finite, error) {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	states := map[string]Finite{init.StateKey(): init}
	frontier := []Finite{init}
	for len(frontier) > 0 {
		var next []Finite
		for _, s := range frontier {
			for _, inv := range alphabet {
				succ, _ := stepFinite(s, inv)
				key := succ.StateKey()
				if _, seen := states[key]; !seen {
					if len(states) >= maxStates {
						return nil, fmt.Errorf("modelcheck: state space exceeds %d states", maxStates)
					}
					states[key] = succ
					next = append(next, succ)
				}
			}
		}
		frontier = next
	}
	return states, nil
}

// ObsClasses partitions the states into observational-equivalence classes
// with respect to the operation alphabet: two states are equivalent iff no
// sequence of operations can produce different outputs from them. It is
// the standard partition-refinement (bisimulation) computation; since the
// objects are deterministic, observational equivalence and bisimilarity
// coincide.
func ObsClasses(states map[string]Finite, alphabet []sim.Invocation) map[string]int {
	t := buildTable(states, alphabet)
	class := t.obsClasses()
	out := make(map[string]int, len(t.keys))
	for i, k := range t.keys {
		out[k] = int(class[i])
	}
	return out
}

// obsClasses is the partition refinement over the precomputed table.
// A round renders each state's signature — the (output, successor-class)
// row across the alphabet — as packed int32 bytes into one reused
// buffer; class ids are assigned first-seen in sorted-key order, exactly
// as the string-signature refinement assigned them, so the resulting
// partition (and every report built on it) is unchanged.
func (t *stateTable) obsClasses() []int32 {
	n := len(t.keys)
	class := make([]int32, n)
	next := make([]int32, n)
	var buf []byte
	for {
		sigs := make(map[string]int32, n)
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for _, tr := range t.rows[i] {
				buf = appendInt32(buf, tr.out)
				buf = appendInt32(buf, class[tr.succ])
			}
			id, ok := sigs[string(buf)]
			if !ok {
				id = int32(len(sigs))
				sigs[string(buf)] = id
			}
			next[i] = id
		}
		same := true
		for i := range class {
			if class[i] != next[i] {
				same = false
				break
			}
		}
		if same {
			return next
		}
		class, next = next, class
	}
}

// appendInt32 appends v's four little-endian bytes.
func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// PairFailure records a violation of the Lemma 38 obligations: a reachable
// state and a pair of pending operations such that BOTH issuing processes
// can distinguish the execution orders. An object with no failures cannot
// escape the critical-configuration argument — it cannot solve 2-process
// consensus — while each failure pinpoints exactly the synchronization
// power a stronger object (SWAP, test-and-set, a consensus cell) exposes.
type PairFailure struct {
	// State is the state key of the critical configuration.
	State string
	// A is the pending operation of the first process, B of the second.
	A, B sim.Invocation
}

// String renders the failure.
func (p PairFailure) String() string {
	return fmt.Sprintf("state %s: %s vs %s distinguishable by both", p.State, p.A, p.B)
}

// IndistReport is the outcome of CheckIndistinguishability.
type IndistReport struct {
	// States is the size of the reachable state space.
	States int
	// Pairs is the number of (state, opA, opB) triples checked.
	Pairs int
	// Failures lists the triples where some issuer survives both orders
	// yet observes them differently — genuine synchronization power.
	Failures []PairFailure
	// Degenerate lists the triples where neither issuer survives both
	// orders (a hang is involved) and no indistinguishability holds: the
	// plain critical-configuration argument is inapplicable there, but the
	// pair yields no distinguishing survivor either. One-shot objects
	// produce these on repeated-index pairs.
	Degenerate []PairFailure
}

// Passed reports whether the object exposed no distinguishing pair: no
// process can both survive a pending-operation race and observe its order,
// which is the engine of every 2-consensus protocol.
func (r *IndistReport) Passed() bool { return len(r.Failures) == 0 }

// Clean reports whether additionally no degenerate pairs occurred, i.e.
// the textbook critical-configuration argument of Lemma 38 applies
// verbatim (true for multi-shot WRN_k with k ≥ 3 and for registers).
func (r *IndistReport) Clean() bool { return r.Passed() && len(r.Degenerate) == 0 }

// CheckIndistinguishability mechanizes Lemma 38's case analysis. For every
// reachable state S and operations a (by process P) and b (by process Q)
// it checks that at least one process cannot distinguish the two orders:
//
//	P cannot distinguish if its response to a is the same whether or not b
//	precedes it, AND the configurations (S·a vs S·b·a, or S·a·b vs S·b·a)
//	are observationally equivalent;
//	symmetrically for Q.
//
// Observational equivalence is computed by ObsClasses over the full
// alphabet — the strongest observer — so a pass here is conservative.
func CheckIndistinguishability(init Finite, alphabet []sim.Invocation, maxStates int) (*IndistReport, error) {
	return checkIndistN(init, alphabet, maxStates)
}

// checkIndistN runs the Lemma 38 case analysis. The reachable space is
// precomputed into a transition table once, so the per-pair verdicts
// are index lookups rather than four object clones; failures are
// listed in sorted-state-key order.
func checkIndistN(init Finite, alphabet []sim.Invocation, maxStates int) (*IndistReport, error) {
	states, err := reachableN(init, alphabet, maxStates)
	if err != nil {
		return nil, err
	}
	t := buildTable(states, alphabet)
	class := t.obsClasses()

	rep := &IndistReport{States: len(t.keys), Pairs: len(t.keys) * len(alphabet) * len(alphabet)}
	for i, key := range t.keys {
		for ai, a := range alphabet {
			for bi, b := range alphabet {
				va := t.classify(class, int32(i), ai, bi)
				vb := t.classify(class, int32(i), bi, ai)
				if va == pairIndist || vb == pairIndist {
					continue // some issuer cannot distinguish: obligation met
				}
				f := PairFailure{State: key, A: a, B: b}
				if va == pairDistinguish || vb == pairDistinguish {
					rep.Failures = append(rep.Failures, f)
				} else {
					rep.Degenerate = append(rep.Degenerate, f)
				}
			}
		}
	}
	return rep, nil
}

type pairVerdict int

const (
	// pairIndist: the issuer of a survives both orders with identical
	// responses and observationally equivalent configurations.
	pairIndist pairVerdict = iota
	// pairDistinguish: the issuer survives both orders but can tell them
	// apart — consensus-grade power.
	pairDistinguish
	// pairDegenerate: the issuer hangs in at least one order, so it can
	// neither carry the indistinguishability argument nor act on the
	// difference.
	pairDegenerate
)

const hangToken = "<hang>"

// classify judges how the process issuing alphabet[a] experiences the
// order of a and b from state s, entirely through table lookups.
// Indistinguishable means: same response either with b's step absorbed
// (overwriting, S·a ≡ S·b·a) or with both steps applied (commuting,
// S·a·b ≡ S·b·a). Interned output ids compare exactly as the rendered
// strings did, and class indexes the same partition ObsClasses computes.
func (t *stateTable) classify(class []int32, s int32, a, b int) pairVerdict {
	ta := t.rows[s][a]        // S·a: a's response and successor
	tb := t.rows[s][b]        // S·b: b's successor (a hang stays at S)
	tba := t.rows[tb.succ][a] // S·b·a: a's response after b
	if ta.out == t.hang || tba.out == t.hang {
		return pairDegenerate
	}
	if ta.out != tba.out {
		return pairDistinguish
	}
	if class[ta.succ] == class[tba.succ] {
		return pairIndist // overwriting: b's step is invisible to a's issuer
	}
	sab := t.rows[ta.succ][b].succ
	if class[sab] == class[tba.succ] {
		return pairIndist // commuting
	}
	return pairDistinguish
}

// classifyStep is the table-free variant of classify for objects whose
// state space cannot be enumerated (unbounded growth): it re-steps the
// object per verdict. Distinguishing verdicts depend only on the
// issuer's outputs plus the supplied equivalence, so callers with
// unbounded spaces pass a conservative cls (e.g. state identity).
func classifyStep(s Finite, a, b sim.Invocation, cls func(Finite) int) pairVerdict {
	sa, outA := stepFinite(s, a)
	sb, _ := stepFinite(s, b)
	sba, outAafterB := stepFinite(sb, a)
	if outA == hangToken || outAafterB == hangToken {
		return pairDegenerate
	}
	if outA != outAafterB {
		return pairDistinguish
	}
	if cls(sa) == cls(sba) {
		return pairIndist // overwriting: b's step is invisible to a's issuer
	}
	sab, _ := stepFinite(sa, b)
	if cls(sab) == cls(sba) {
		return pairIndist // commuting
	}
	return pairDistinguish
}

// WRNAlphabet builds the operation alphabet for a WRN_k object over a
// value domain of the given size, using distinct tagged values so that
// writes by different "processes" are distinguishable.
func WRNAlphabet(k, domain int) []sim.Invocation {
	var ops []sim.Invocation
	for i := 0; i < k; i++ {
		for v := 0; v < domain; v++ {
			ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, fmt.Sprintf("v%d", v)}})
		}
	}
	return ops
}
