package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/sim"
	"detobj/internal/tasks"
)

// objectPkgs are the object modules whose Apply calls are reported
// separately. Objects of any other package are counted only in the
// span totals.
var objectPkgs = [...]string{"wrn", "consensus", "registers", "recoverable", "snapshot", "setconsensus", "election"}

// otherPkg indexes objects outside objectPkgs.
const otherPkg = len(objectPkgs)

type spanKind uint8

const (
	spanVerdict spanKind = iota
	// spanReplay is one Factory call inside an engine: it lasts until
	// the engine's next Factory call or the verdict's end, so it covers
	// the replayed run and the engine work that follows it.
	spanReplay
	// spanRun is one direct sim.Run call.
	spanRun
)

// span is one traced interval. Apply and signature calls are not spans
// of their own: their counts and summed time sit on the enclosing span.
type span struct {
	kind       spanKind
	verdict    verdictKind // kind of the verdict the span belongs to
	parent     int32       // index of the verdict span; -1 for a verdict
	name       string      // verdict name; empty for children
	start, end time.Duration

	applyCalls, applyNS int64
	sigCalls, sigNS     int64
	sigBytes            int64
	visits, visitNS     int64
	factoryNS           int64
	executions          int64  // verdict spans: executions covered
	steps, procs        int64  // run spans: Result.Steps and process count
	mallocs             uint64 // run spans: heap objects allocated
}

func (s *span) wall() int64 { return int64(s.end - s.start) }

// pkgStat accumulates one object package's Apply calls.
type pkgStat struct{ calls, ns int64 }

// tracer records one traced pass: verdict, replay and run spans in
// memory, per-package object counters, checker timings, and engine and
// runtime counters. A nil *tracer is valid and records nothing; every
// hook then calls straight through.
type tracer struct {
	epoch   time.Time
	spans   []span
	verdict int // open verdict span
	cur     int // innermost open span

	pkgs  [len(objectPkgs) + 1]pkgStat
	pkgOf map[reflect.Type]int

	taskChecks, taskNS       int64
	linChecks, linNS, linOps int64
	sym                      modelcheck.SymmetryReport
	faults                   faultCounts
	mallocs, allocBytes, gcs uint64
	gcPauseNS                uint64
	mem0                     runtime.MemStats
	heapAllocs               []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		pkgOf:      map[reflect.Type]int{},
		heapAllocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// reset starts a new pass.
func (t *tracer) reset() {
	pkgOf, heapAllocs, spans := t.pkgOf, t.heapAllocs, t.spans[:0]
	*t = tracer{pkgOf: pkgOf, heapAllocs: heapAllocs, spans: spans, epoch: time.Now()}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens the span of verdict v and snapshots the memory stats.
func (t *tracer) begin(v verdict) {
	runtime.ReadMemStats(&t.mem0)
	t.spans = append(t.spans, span{kind: spanVerdict, verdict: v.kind, parent: -1, name: v.name, start: t.now()})
	t.verdict = len(t.spans) - 1
	t.cur = t.verdict
}

// end closes the open verdict and adds its engine and runtime counters.
func (t *tracer) end(out outcome) {
	t.closeChild()
	s := &t.spans[t.verdict]
	s.end = t.now()
	s.executions = int64(out.executions)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.mallocs += m.Mallocs - t.mem0.Mallocs
	t.allocBytes += m.TotalAlloc - t.mem0.TotalAlloc
	t.gcs += uint64(m.NumGC - t.mem0.NumGC)
	t.gcPauseNS += m.PauseTotalNs - t.mem0.PauseTotalNs
	t.sym.Executions += out.sym.Executions
	t.sym.ReducedConfigs += out.sym.ReducedConfigs
	t.sym.Hits += out.sym.Hits
	t.sym.Misses += out.sym.Misses
	t.sym.Runs += out.sym.Runs
	t.faults.merge(out.faults)
}

// open starts a child span of the open verdict, closing the previous
// child.
func (t *tracer) open(kind spanKind) {
	t.closeChild()
	t.spans = append(t.spans, span{kind: kind, verdict: t.spans[t.verdict].verdict, parent: int32(t.verdict), start: t.now()})
	t.cur = len(t.spans) - 1
}

func (t *tracer) closeChild() {
	if t.cur != t.verdict {
		t.spans[t.cur].end = t.now()
		t.cur = t.verdict
	}
}

// factory decorates an engine's Factory: each call opens a replay span,
// is timed, and wraps every object of the fresh configuration.
func (t *tracer) factory(f modelcheck.Factory) modelcheck.Factory {
	if t == nil {
		return f
	}
	return func() sim.Config {
		t.open(spanReplay)
		t0 := time.Now()
		cfg := f()
		t.spans[t.cur].factoryNS += int64(time.Since(t0))
		t.wrapAll(cfg.Objects)
		return cfg
	}
}

// simRun is sim.Run inside a run span, with the objects wrapped.
func (t *tracer) simRun(cfg sim.Config) (*sim.Result, error) {
	if t == nil {
		return sim.Run(cfg)
	}
	t.wrapAll(cfg.Objects)
	t.open(spanRun)
	metrics.Read(t.heapAllocs)
	m0 := t.heapAllocs[0].Value.Uint64()
	res, err := sim.Run(cfg)
	metrics.Read(t.heapAllocs)
	s := &t.spans[t.cur]
	s.mallocs = t.heapAllocs[0].Value.Uint64() - m0
	s.procs = int64(len(cfg.Programs))
	if res != nil {
		s.steps = int64(res.Steps)
	}
	t.closeChild()
	return res, err
}

// visit times an engine's visit callback.
func (t *tracer) visit(fn func(modelcheck.Execution) error) func(modelcheck.Execution) error {
	if t == nil {
		return fn
	}
	return func(e modelcheck.Execution) error {
		t0 := time.Now()
		err := fn(e)
		s := &t.spans[t.cur]
		s.visits++
		s.visitNS += int64(time.Since(t0))
		return err
	}
}

// taskCheck checks a run's outcome against a task.
func (t *tracer) taskCheck(task tasks.Task, res *sim.Result, in map[int]sim.Value) error {
	if t == nil {
		return task.Check(tasks.OutcomeFromResult(res, in))
	}
	t0 := time.Now()
	err := task.Check(tasks.OutcomeFromResult(res, in))
	t.taskNS += int64(time.Since(t0))
	t.taskChecks++
	return err
}

// linCheck reports whether ops linearize under spec.
func (t *tracer) linCheck(spec linearize.Spec, ops []linearize.Op) bool {
	if t == nil {
		return linearize.Check(spec, ops).OK
	}
	t0 := time.Now()
	ok := linearize.Check(spec, ops).OK
	t.linNS += int64(time.Since(t0))
	t.linChecks++
	t.linOps += int64(len(ops))
	return ok
}

// wrapAll replaces every object of a fresh configuration by its probe.
func (t *tracer) wrapAll(objects map[string]sim.Object) {
	for name, o := range objects {
		objects[name] = t.wrap(o)
	}
}

// stateKeyer is the model checker's string-signature fallback.
type stateKeyer interface{ StateKey() string }

// wrap decorates o with a probe that implements sim.StateSigner,
// StateKey and sim.Recoverable exactly when o does, so the engines and
// the runtime take the same paths (dedup, OnCrash) as without tracing.
func (t *tracer) wrap(o sim.Object) sim.Object {
	p := &probe{inner: o, tr: t, pkg: t.pkgIndex(o)}
	var hasS, hasK, hasR bool
	p.signer, hasS = o.(sim.StateSigner)
	p.keyer, hasK = o.(stateKeyer)
	p.rec, hasR = o.(sim.Recoverable)
	s, k, r := sigM{p}, keyM{p}, crashM{p}
	switch {
	case hasS && hasK && hasR:
		return probeSKR{p, s, k, r}
	case hasS && hasK:
		return probeSK{p, s, k}
	case hasS && hasR:
		return probeSR{p, s, r}
	case hasK && hasR:
		return probeKR{p, k, r}
	case hasS:
		return probeS{p, s}
	case hasK:
		return probeK{p, k}
	case hasR:
		return probeR{p, r}
	default:
		return p
	}
}

// pkgIndex maps an object's package to its objectPkgs slot.
func (t *tracer) pkgIndex(o sim.Object) int {
	typ := reflect.TypeOf(o)
	if i, ok := t.pkgOf[typ]; ok {
		return i
	}
	base := typ
	for base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	path := base.PkgPath()
	i := otherPkg
	for j, name := range objectPkgs {
		if path == "detobj/internal/"+name {
			i = j
		}
	}
	t.pkgOf[typ] = i
	return i
}

// probe is the object decorator: it counts and times Apply and the
// signature calls onto the innermost open span and the package totals.
type probe struct {
	inner  sim.Object
	tr     *tracer
	pkg    int
	signer sim.StateSigner
	keyer  stateKeyer
	rec    sim.Recoverable
}

// Apply implements sim.Object. A call that panics (the explorers'
// choice demands) is counted but its time stays in the span's self
// time.
func (p *probe) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	t := p.tr
	t.spans[t.cur].applyCalls++
	t.pkgs[p.pkg].calls++
	t0 := time.Now()
	resp := p.inner.Apply(env, inv)
	d := int64(time.Since(t0))
	t.spans[t.cur].applyNS += d
	t.pkgs[p.pkg].ns += d
	return resp
}

func (p *probe) sig(t0 time.Time, bytes int) {
	s := &p.tr.spans[p.tr.cur]
	s.sigCalls++
	s.sigNS += int64(time.Since(t0))
	s.sigBytes += int64(bytes)
}

type sigM struct{ p *probe }

// AppendStateSig implements sim.StateSigner.
func (m sigM) AppendStateSig(dst []byte) []byte {
	t0, n := time.Now(), len(dst)
	dst = m.p.signer.AppendStateSig(dst)
	m.p.sig(t0, len(dst)-n)
	return dst
}

type keyM struct{ p *probe }

// StateKey implements the model checker's signature fallback.
func (m keyM) StateKey() string {
	t0 := time.Now()
	k := m.p.keyer.StateKey()
	m.p.sig(t0, len(k))
	return k
}

type crashM struct{ p *probe }

// OnCrash implements sim.Recoverable.
func (m crashM) OnCrash(proc int) { m.p.rec.OnCrash(proc) }

// One probe type per combination of the optional interfaces.
type (
	probeS struct {
		*probe
		sigM
	}
	probeK struct {
		*probe
		keyM
	}
	probeR struct {
		*probe
		crashM
	}
	probeSK struct {
		*probe
		sigM
		keyM
	}
	probeSR struct {
		*probe
		sigM
		crashM
	}
	probeKR struct {
		*probe
		keyM
		crashM
	}
	probeSKR struct {
		*probe
		sigM
		keyM
		crashM
	}
)

// layerMetrics derives the per-layer metrics of the finished pass. Counts
// are per pass; *_ns and *_us are means per call.
func (t *tracer) layerMetrics() map[string]float64 {
	var tree, run span // per-layer sums of the span counters
	var treeWall, runWall, treeExecs, execs, replays, runs int64
	for i := range t.spans {
		s := &t.spans[i]
		execs += s.executions
		acc := &tree
		if s.verdict == kindChaos {
			acc = &run
		}
		acc.applyCalls += s.applyCalls
		acc.applyNS += s.applyNS
		acc.sigCalls += s.sigCalls
		acc.sigNS += s.sigNS
		acc.sigBytes += s.sigBytes
		acc.visits += s.visits
		acc.visitNS += s.visitNS
		acc.factoryNS += s.factoryNS
		switch {
		case s.kind == spanVerdict && s.verdict == kindTree:
			treeWall += s.wall()
			treeExecs += s.executions
		case s.kind == spanReplay:
			replays++
		case s.kind == spanRun:
			runs++
			runWall += s.wall()
			run.steps += s.steps
			run.procs += s.procs
			run.mallocs += s.mallocs
		}
	}
	m := map[string]float64{
		"modelcheck.replay_ns_per_step":    ratio(treeWall-tree.applyNS-tree.sigNS-tree.visitNS-tree.factoryNS, tree.applyCalls),
		"modelcheck.steps_per_execution":   ratio(tree.applyCalls, treeExecs),
		"modelcheck.replays":               float64(replays),
		"modelcheck.executions_per_replay": ratio(treeExecs, replays),
		"modelcheck.factory_ns_per_replay": ratio(tree.factoryNS, replays),
		"modelcheck.visit_ns":              ratio(tree.visitNS, tree.visits),
		"modelcheck.tt_hits":               float64(t.sym.Hits),
		"modelcheck.tt_misses":             float64(t.sym.Misses),
		"modelcheck.tt_hit_ratio":          ratio(int64(t.sym.Hits), int64(t.sym.Hits+t.sym.Misses)),
		"modelcheck.reduced_configs":       float64(t.sym.ReducedConfigs),
		"modelcheck.executions_per_run":    ratio(int64(t.sym.Executions), int64(t.sym.Runs)),
		"sim.self_ns_per_step":             ratio(runWall-run.applyNS, run.steps),
		"sim.run_us":                       ratio(runWall, runs) / 1e3,
		"sim.runs":                         float64(runs),
		"sim.steps":                        float64(run.steps),
		"sim.steps_per_run":                ratio(run.steps, runs),
		"sim.procs_per_run":                ratio(run.procs, runs),
		"sim.mallocs_per_run":              ratio(int64(run.mallocs), runs),
		"sig.calls":                        float64(tree.sigCalls + run.sigCalls),
		"sig.ns":                           ratio(tree.sigNS+run.sigNS, tree.sigCalls+run.sigCalls),
		"sig.bytes":                        float64(tree.sigBytes + run.sigBytes),
		"tasks.checks":                     float64(t.taskChecks),
		"tasks.check_ns":                   ratio(t.taskNS, t.taskChecks),
		"linearize.checks":                 float64(t.linChecks),
		"linearize.check_us":               ratio(t.linNS, t.linChecks) / 1e3,
		"linearize.ops_per_check":          ratio(t.linOps, t.linChecks),
		"chaos.crashes":                    float64(t.faults.crashes),
		"chaos.restarts":                   float64(t.faults.restarts),
		"chaos.recoveries":                 float64(t.faults.recoveries),
		"chaos.max_stall":                  float64(t.faults.maxStall),
		"runtime.mallocs_per_execution":    ratio(int64(t.mallocs), execs),
		"runtime.alloc_mb":                 float64(t.allocBytes) / (1 << 20),
		"runtime.gc_cycles":                float64(t.gcs),
		"runtime.gc_pause_ms":              float64(t.gcPauseNS) / 1e6,
	}
	for i, name := range objectPkgs {
		m[name+".apply_calls"] = float64(t.pkgs[i].calls)
		m[name+".apply_ns"] = ratio(t.pkgs[i].ns, t.pkgs[i].calls)
	}
	return m
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans prints the pass's spans summed per verdict: replay and run
// children, object and signature calls, wall and self time (wall minus
// Apply, signature, visit and factory time).
func (t *tracer) writeSpans(w io.Writer) {
	type row struct {
		children   int
		apply, sig int64
		wall, busy int64 // busy: Apply, signature, visit and factory time
	}
	rows := map[string]*row{}
	var names []string
	for i := range t.spans {
		s := &t.spans[i]
		name := s.name
		if s.parent >= 0 {
			name = t.spans[s.parent].name
		}
		r := rows[name]
		if r == nil {
			r = &row{}
			rows[name] = r
			names = append(names, name)
		}
		if s.kind == spanVerdict {
			r.wall += s.wall()
		} else {
			r.children++
		}
		r.apply += s.applyCalls
		r.sig += s.sigCalls
		r.busy += s.applyNS + s.sigNS + s.visitNS + s.factoryNS
	}
	sort.Strings(names)
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(w, "# span %-40s children=%-6d apply=%-8d sig=%-6d wall_ms=%.3f self_ms=%.3f\n",
			name, r.children, r.apply, r.sig, float64(r.wall)/1e6, float64(r.wall-r.busy)/1e6)
	}
}

// layerUnit gives each per-layer metric its unit.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_ns_per_step") || strings.HasSuffix(name, "_ns_per_replay") || name == "sig.ns":
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_frac"):
		return "ratio"
	case name == "sig.bytes":
		return "bytes"
	}
	return "count"
}
