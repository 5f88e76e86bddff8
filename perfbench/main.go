// Command perfbench is the repository benchmark. It runs one named
// workload — a fixed list of verdicts built from the seed — from one
// calling goroutine in a closed loop: the next verdict starts only when
// the previous one has returned. Every verdict is checked against its
// pinned expectation; a mismatch or engine error counts as failed, and
// the command then exits 1.
//
// With -trace 0 it reports the end-to-end metrics (tracing off). With
// -trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics of the traced ones, plus the tracing overhead.
// The last line of standard output is one JSON object.
//
// Usage:
//
//	perfbench -workload explore-exhaustive|explore-reduced|simulate-chaos|all [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken at package initialisation, so the first set-up
// round is timed from process start.
var processStart = time.Now()

const (
	// setupRounds is how often set-up runs; setup_s is the median.
	setupRounds = 3
	// minVerdicts keeps at least ten samples beyond the 90th percentile.
	minVerdicts = 100
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	s, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !s.Correct {
		os.Exit(1)
	}
}

// run runs the selected workload (or each in turn for "all") and
// prints the header, the metrics and the JSON summary.
func run(w io.Writer, o options) (summary, error) {
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else if wl, ok := findWorkload(o.workload); ok {
		selected = []workload{wl}
	} else {
		return summary{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return summary{}, fmt.Errorf("-seconds must be at least 1")
	}
	writeHeader(w, o)
	total := summary{Correct: true, Metrics: map[string]metric{}}
	start := processStart
	for _, wl := range selected {
		s := runWorkload(w, wl, o, start)
		start = time.Now()
		if len(selected) == 1 {
			total = s
			break
		}
		line, _ := json.Marshal(s)
		fmt.Fprintf(w, "# %s %s\n", wl.name, line)
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for name, m := range s.Metrics {
			total.Metrics[wl.name+"."+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return total, nil
}

func writeHeader(w io.Writer, o options) {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	fmt.Fprintf(w, "# perfbench go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "# seed=%d seconds=%d trace=%v workload=%s workloads=%s\n",
		o.seed, o.seconds, o.trace, o.workload, strings.Join(names, ","))
	fmt.Fprintln(w, "# loop: closed, one calling goroutine")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// tally counts verdicts and remembers the first failure.
type tally struct {
	attempted, failed, executions int
	first                         string
}

// runVerdict runs v once (traced when tr is non-nil) and checks it.
func (c *tally) runVerdict(v verdict, tr *tracer) {
	if tr != nil {
		tr.begin(v)
	}
	out, err := v.run(tr)
	if tr != nil {
		tr.end(out)
	}
	c.attempted++
	if err == nil && v.kind != kindChaos && out.print != pinned[v.name] {
		err = fmt.Errorf("got %q, pinned %q", out.print, pinned[v.name])
	}
	if err != nil {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf("%s: %v", v.name, err)
		}
		return
	}
	c.executions += out.executions
}

// pass is one workload's verdict list. next reshuffles it from the
// seed's generator: every pass runs the same verdicts, so counts per pass
// repeat exactly, but no verdict always follows the same predecessor
// (and pays, say, the garbage it left behind).
type pass struct {
	vs  []verdict
	rng *rand.Rand
}

func (p *pass) next() []verdict {
	p.rng.Shuffle(len(p.vs), func(i, j int) { p.vs[i], p.vs[j] = p.vs[j], p.vs[i] })
	return p.vs
}

// runWorkload sets up wl setupRounds times, then measures it for
// o.seconds and returns its metrics.
func runWorkload(w io.Writer, wl workload, o options, start time.Time) summary {
	var p pass
	var warm tally
	setups := make([]float64, setupRounds)
	for r := range setups {
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		p = pass{wl.build(o.seed), rand.New(rand.NewSource(o.seed))}
		for _, v := range p.next() {
			warm.runVerdict(v, nil)
		}
		setups[r] = time.Since(t0).Seconds()
	}
	fmt.Fprintf(w, "# %s: %d verdicts per pass\n", wl.name, len(p.vs))

	var c tally
	var s summary
	if o.trace {
		s = measureTraced(w, &p, o, &c)
	} else {
		s = measure(w, &p, o, &c)
		s.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	s.Attempted, s.Failed = c.attempted, c.failed
	s.Correct = c.failed == 0 && warm.failed == 0
	for _, first := range []string{warm.first, c.first} {
		if first != "" {
			fmt.Fprintf(w, "# FAILED %s\n", first)
		}
	}
	names := make([]string, 0, len(s.Metrics))
	for name := range s.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, s.Metrics[name].Value, s.Metrics[name].Unit)
	}
	return s
}

// measure runs whole passes untraced until o.seconds have passed and at
// least minVerdicts verdicts have run. executions_per_s is the median
// over passes of the pass's executions ÷ its wall time.
func measure(w io.Writer, p *pass, o options, c *tally) summary {
	var samples, rates []float64
	t0 := time.Now()
	for time.Since(t0) < time.Duration(o.seconds)*time.Second || len(samples) < minVerdicts {
		p0, e0 := time.Now(), c.executions
		for _, v := range p.next() {
			s := time.Now()
			c.runVerdict(v, nil)
			samples = append(samples, float64(time.Since(s))/1e6)
		}
		rates = append(rates, float64(c.executions-e0)/time.Since(p0).Seconds())
	}
	sort.Float64s(samples)
	fmt.Fprintf(w, "# verdicts=%d passes=%d wall_s=%.3f\n", len(samples), len(rates), time.Since(t0).Seconds())
	fmt.Fprintf(w, "%-36s %14.6g %s\n", "failed_frac", float64(c.failed)/float64(c.attempted), "ratio")
	return summary{Metrics: map[string]metric{
		"verdict_ms_p50":   {rank(samples, 0.50), "ms"},
		"verdict_ms_p90":   {rank(samples, 0.90), "ms"},
		"executions_per_s": {median(rates), "1/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}}
}

// measureTraced alternates untraced and traced passes until o.seconds
// have passed. Each per-layer metric is the median over traced passes;
// counts are identical in every pass.
func measureTraced(w io.Writer, p *pass, o options, c *tally) summary {
	tr := newTracer()
	var plain, traced []float64
	perPass := map[string][]float64{}
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0) < time.Duration(o.seconds)*time.Second {
		s := time.Now()
		for _, v := range p.next() {
			c.runVerdict(v, nil)
		}
		plain = append(plain, time.Since(s).Seconds())
		s = time.Now()
		layers := tracedPass(p.next(), tr, c)
		traced = append(traced, time.Since(s).Seconds())
		for name, v := range layers {
			perPass[name] = append(perPass[name], v)
		}
	}
	fmt.Fprintf(w, "# traced passes=%d untraced passes=%d\n", len(traced), len(plain))
	tr.writeSpans(w)
	m := map[string]metric{"trace.overhead_frac": {median(traced)/median(plain) - 1, "ratio"}}
	for name, vals := range perPass {
		m[name] = metric{median(vals), layerUnit(name)}
	}
	return summary{Metrics: m}
}

// tracedPass runs one traced pass of vs and returns its per-layer
// metrics.
func tracedPass(vs []verdict, tr *tracer, c *tally) map[string]float64 {
	tr.reset()
	for _, v := range vs {
		c.runVerdict(v, tr)
	}
	return tr.layerMetrics()
}

// rank is the nearest-rank quantile q of sorted xs.
func rank(xs []float64, q float64) float64 {
	i := int(math.Ceil(float64(len(xs))*q)) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
