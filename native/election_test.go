package native

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestElectionConcurrent: k real goroutines with identities from a large
// space decide at most k−1 distinct values, every value some
// participant's proposal.
func TestElectionConcurrent(t *testing.T) {
	cases := []struct {
		k, m int
		ids  []int
	}{
		{3, 16, []int{2, 9, 14}},
		{3, 64, []int{63, 0, 31}},
		{4, 32, []int{5, 11, 23, 29}},
	}
	for _, c := range cases {
		for round := 0; round < 150; round++ {
			e := NewElection(c.k, c.m)
			if e.K() != c.k {
				t.Fatalf("K = %d", e.K())
			}
			decisions := make([]any, len(c.ids))
			var wg sync.WaitGroup
			for p, id := range c.ids {
				p, id := p, id
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := e.Propose(id, 1000+id)
					if err != nil {
						t.Errorf("k=%d id=%d: %v", c.k, id, err)
						return
					}
					decisions[p] = out
				}()
			}
			wg.Wait()
			proposed := map[any]bool{}
			for _, id := range c.ids {
				proposed[1000+id] = true
			}
			distinct := map[any]bool{}
			for p, d := range decisions {
				if !proposed[d] {
					t.Fatalf("k=%d round=%d: participant %d decided unproposed %v", c.k, round, p, d)
				}
				distinct[d] = true
			}
			if len(distinct) > c.k-1 {
				t.Fatalf("k=%d round=%d: %d distinct decisions, bound %d", c.k, round, len(distinct), c.k-1)
			}
		}
	}
}

// TestElectionFewerParticipants: fewer than k participants still decide
// valid values.
func TestElectionFewerParticipants(t *testing.T) {
	e := NewElection(3, 16)
	out, err := e.Propose(7, "solo")
	if err != nil || out != "solo" {
		t.Fatalf("solo propose = %v, %v", out, err)
	}
}

// TestElectionValidation: misuse is reported as errors, not hangs.
func TestElectionValidation(t *testing.T) {
	e := NewElection(3, 16)
	if _, err := e.Propose(99, "v"); !errors.Is(err, ErrBadIndex) {
		t.Errorf("bad identity err = %v", err)
	}
	if _, err := e.Propose(3, nil); !errors.Is(err, ErrBadValue) {
		t.Errorf("nil value err = %v", err)
	}
	if _, err := e.Propose(3, "a"); err != nil {
		t.Fatalf("first propose: %v", err)
	}
	if _, err := e.Propose(3, "b"); !errors.Is(err, ErrIndexUsed) {
		t.Errorf("double propose err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewElection(1, 5) did not panic")
		}
	}()
	NewElection(1, 5)
}

// TestCoveringFamilyNative: the native family covers every k-subset.
func TestCoveringFamilyNative(t *testing.T) {
	for k := 2; k <= 5; k++ {
		family := coveringFamily(k)
		// For each k-subset of {0..2k-2}, some mapping is onto {0..k-1}.
		var subsets func(start int, cur []int)
		ok := true
		idx := []int{}
		subsets = func(start int, cur []int) {
			if len(cur) == k {
				found := false
				for _, f := range family {
					seen := make([]bool, k)
					for _, j := range cur {
						seen[f[j]] = true
					}
					all := true
					for _, s := range seen {
						all = all && s
					}
					if all {
						found = true
						break
					}
				}
				if !found {
					ok = false
				}
				return
			}
			for v := start; v <= 2*k-2; v++ {
				subsets(v+1, append(cur, v))
			}
		}
		subsets(0, idx)
		if !ok {
			t.Errorf("k=%d: covering family incomplete", k)
		}
	}
}

// TestNativeRenaming: concurrent participants acquire distinct names in
// {0..2k−2}.
func TestNativeRenaming(t *testing.T) {
	const m = 32
	ids := []int{4, 17, 29, 8}
	for round := 0; round < 200; round++ {
		snap := newSnapshot(m)
		names := make([]int, len(ids))
		var wg sync.WaitGroup
		for p, id := range ids {
			p, id := p, id
			wg.Add(1)
			go func() {
				defer wg.Done()
				name, err := rename(snap, nil, id)
				if err != nil {
					t.Errorf("rename(%d): %v", id, err)
					return
				}
				names[p] = name
			}()
		}
		wg.Wait()
		seen := map[int]bool{}
		for p, name := range names {
			if name < 0 || name >= 2*len(ids)-1 {
				t.Fatalf("round %d: participant %d got name %d outside [0,%d)", round, p, name, 2*len(ids)-1)
			}
			if seen[name] {
				t.Fatalf("round %d: duplicate name %d (%v)", round, name, names)
			}
			seen[name] = true
		}
	}
}

// TestRelaxedWRNNative: concurrent same-index racers reach the one-shot
// object at most once.
func TestRelaxedWRNNative(t *testing.T) {
	for round := 0; round < 300; round++ {
		r := newRelaxedWRN(3)
		var wg sync.WaitGroup
		nonBottom := 0
		var mu sync.Mutex
		for p := 0; p < 6; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := r.rlx(nil, p, 0, fmt.Sprintf("p%d", p))
				if err != nil {
					t.Errorf("rlx: %v", err)
					return
				}
				if !IsBottom(out) {
					mu.Lock()
					nonBottom++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		// The single forwarded invocation read cell 1, which is ⊥, so
		// every racer got ⊥ back; the invariant is that no ErrIndexUsed
		// occurred (at most one racer reached the object).
		if nonBottom != 0 {
			t.Fatalf("round %d: %d non-⊥ results on a contended fresh index", round, nonBottom)
		}
	}
}

func BenchmarkNativeElectionRound(b *testing.B) {
	ids := []int{2, 9, 14}
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		e := NewElection(3, 16)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Propose(id, id); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestNthFree is the same case table as internal/renaming's TestNthFree:
// nthFree takes no shared-memory steps, so its termination and result
// are covered here rather than by the root package's wait-free bounds.
func TestNthFree(t *testing.T) {
	taken := map[int]bool{1: true, 3: true}
	cases := []struct{ r, want int }{{1, 2}, {2, 4}, {3, 5}}
	for _, c := range cases {
		if got := nthFree(taken, c.r); got != c.want {
			t.Errorf("nthFree(%d) = %d, want %d", c.r, got, c.want)
		}
	}
}
