package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// TestPinnedAgreesWithOracle re-derives the reduced pins the exhaustive
// engines can reach, so the pinned table cannot drift from the oracle.
func TestPinnedAgreesWithOracle(t *testing.T) {
	const seed = 7
	n, err := modelcheck.Explore(relaxedFactory(seed, 3, 4), 1<<40, allDone)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16848 || pinned["E4/k=3/procs=4"] != fmt.Sprintf("executions=%d", n) {
		t.Fatalf("E4 procs=4 oracle counts %d executions, pinned %q", n, pinned["E4/k=3/procs=4"])
	}
	if want := fmt.Sprintf("Executions:%d ", n); !strings.Contains(pinned["E4r/k=3/procs=4"], want) {
		t.Errorf("E4r procs=4 pin %q does not reconstruct the oracle's %d executions", pinned["E4r/k=3/procs=4"], n)
	}
	for _, row := range e11Rows(seed) {
		oracle, err := modelcheck.AnalyzeValency(row.f, 0)
		if err != nil {
			t.Fatal(err)
		}
		red, _, err := modelcheck.AnalyzeValencyReduced(row.f, modelcheck.Reduced{Sym: row.sym}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(red, oracle) {
			t.Errorf("%s: reduced %+v, oracle %+v", row.name, red, oracle)
		}
		want := printValency(oracle, row.vs)
		if pinned[row.name] != want || !strings.HasPrefix(pinned[row.name+"/reduced"], want+" ") {
			t.Errorf("%s: pins %q / %q disagree with the oracle's %q", row.name, pinned[row.name], pinned[row.name+"/reduced"], want)
		}
	}
}

// Stand-ins covering every combination of the optional interfaces.
type (
	fakeObj  struct{}
	fakeSig  struct{}
	fakeKey  struct{}
	fakeRecv struct{}
)

func (fakeObj) Apply(*sim.Env, sim.Invocation) sim.Response { return sim.Respond(nil) }
func (fakeSig) AppendStateSig(dst []byte) []byte            { return dst }
func (fakeKey) StateKey() string                            { return "" }
func (fakeRecv) OnCrash(int)                                {}

func interfaces(o sim.Object) [3]bool {
	_, s := o.(sim.StateSigner)
	_, k := o.(stateKeyer)
	_, r := o.(sim.Recoverable)
	return [3]bool{s, k, r}
}

// TestProbeImplementsWhatItWraps: the decorator implements StateSigner,
// StateKey and Recoverable exactly when the wrapped object does, or
// dedup would silently turn off and OnCrash be skipped.
func TestProbeImplementsWhatItWraps(t *testing.T) {
	objects := map[string]sim.Object{
		"fake": fakeObj{},
		"fakeS": struct {
			fakeObj
			fakeSig
		}{},
		"fakeK": struct {
			fakeObj
			fakeKey
		}{},
		"fakeR": struct {
			fakeObj
			fakeRecv
		}{},
		"fakeSK": struct {
			fakeObj
			fakeSig
			fakeKey
		}{},
		"fakeSR": struct {
			fakeObj
			fakeSig
			fakeRecv
		}{},
		"fakeKR": struct {
			fakeObj
			fakeKey
			fakeRecv
		}{},
		"fakeSKR": struct {
			fakeObj
			fakeSig
			fakeKey
			fakeRecv
		}{},
		"setcons":  setconsensus.NewObject(4, 2),
		"recovreg": recoverable.NewRegister(nil),
	}
	add := func(prefix string, m map[string]sim.Object) {
		for name, o := range m {
			objects[prefix+"/"+name] = o
		}
	}
	add("alg2", alg2Factory(inputs(1, 4))().Objects)
	add("e4", relaxedFactory(1, 3, 4)().Objects)
	for _, row := range e11Rows(1) {
		add(row.name, row.f().Objects)
	}
	for _, p := range e20Protocols {
		add(p.name, twoProc(p.build, inputs(1, 2))().Objects)
	}
	wrn.NewImpl(objects, "alg5", 4)
	recoverable.NewWRN(objects, "recwrn", 3)
	setconsensus.NewAlg3(objects, "alg3", 3, 64, setconsensus.CoveringFamily(3))

	tr := newTracer()
	for name, o := range objects {
		if got, want := interfaces(tr.wrap(o)), interfaces(o); got != want {
			t.Errorf("%s (%T): probe implements signer/key/recoverable %v, object %v", name, o, got, want)
		}
	}
}

// TestTracedMatchesUntraced: a traced verdict computes exactly what the
// untraced one does — same rendering, SymmetryReport (Deduped, Runs,
// Hits, Misses included), chaos counts and executions.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, wl := range workloads {
		tr := newTracer()
		tr.reset()
		for _, v := range wl.build(3) {
			plain, err := v.run(nil)
			if err != nil {
				t.Fatalf("%s untraced: %v", v.name, err)
			}
			tr.begin(v)
			traced, err := v.run(tr)
			tr.end(traced)
			if err != nil {
				t.Fatalf("%s traced: %v", v.name, err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s: traced outcome differs\nuntraced %+v\ntraced   %+v", v.name, plain, traced)
			}
		}
	}
}

// exactCounts are the per-layer counts a later change may base a claim
// on; they must repeat exactly.
func exactCounts(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		if strings.HasSuffix(name, ".apply_calls") || strings.HasPrefix(name, "chaos.") || strings.HasPrefix(name, "modelcheck.tt_") ||
			strings.HasPrefix(name, "sig.") && name != "sig.ns" ||
			name == "sim.steps" || name == "sim.runs" || name == "modelcheck.replays" || name == "modelcheck.reduced_configs" ||
			name == "tasks.checks" || name == "linearize.checks" {
			out[name] = v
		}
	}
	return out
}

// TestCountsRepeat: for one seed every count repeats across traced
// passes; for the explorers, pinned verdicts and counts are also the
// same under another seed.
func TestCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		pass := func(seed int64) (map[string]float64, map[string]string) {
			var c tally
			vs := wl.build(seed)
			counts := exactCounts(tracedPass(vs, newTracer(), &c))
			if c.failed != 0 {
				t.Fatalf("%s seed %d: %s", wl.name, seed, c.first)
			}
			prints := map[string]string{}
			for _, v := range vs {
				out, err := v.run(nil)
				if err != nil {
					t.Fatal(err)
				}
				prints[v.name] = out.print
			}
			return counts, prints
		}
		a, pa := pass(1)
		b, _ := pass(1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between two passes of seed 1:\n%v\n%v", wl.name, a, b)
		}
		if wl.name == "simulate-chaos" {
			continue // its seed drives the schedules, so counts are per seed
		}
		c, pc := pass(2)
		if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(pa, pc) {
			t.Errorf("%s: counts or verdicts differ between seeds 1 and 2:\n%v\n%v", wl.name, a, c)
		}
	}
}
