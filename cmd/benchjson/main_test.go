package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: detobj
cpu: Example CPU
BenchmarkParExploreE4/k=3procs=4/seq-8   2	500000000 ns/op	300000000 B/op	4000000 allocs/op
BenchmarkParExploreE4/k=3procs=4/red-8   100	2500000 ns/op	500000 B/op	16000 allocs/op
BenchmarkParValencyE11/swap/seq-8        1000	200000 ns/op	88000 B/op	1200 allocs/op
BenchmarkSimThroughput-8                 459	2492677 ns/op	        54.00 steps/op	 1612 B/op	      21 allocs/op
PASS
`

func TestParsePairsSpeedupsAndReductions(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("benchmarks = %d, want 4", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Name != "BenchmarkParExploreE4/k=3procs=4/seq" {
		t.Errorf("proc suffix not stripped: %q", rep.Benchmarks[0].Name)
	}
	// Only the E4 benchmark has a /red twin.
	if len(rep.Reductions) != 1 {
		t.Fatalf("reductions = %d, want 1", len(rep.Reductions))
	}
	r := rep.Reductions[0]
	if r.Pair != "BenchmarkParExploreE4/k=3procs=4" {
		t.Errorf("reduction pair = %q", r.Pair)
	}
	if r.Speedup != 200.0 {
		t.Errorf("reduction speedup = %v, want 200", r.Speedup)
	}
	if r.SeqAllocs != 4000000 || r.RedAllocs != 16000 {
		t.Errorf("allocs = %d/%d", r.SeqAllocs, r.RedAllocs)
	}
	if r.AllocRatio != 250.0 {
		t.Errorf("alloc ratio = %v, want 250", r.AllocRatio)
	}
}

// TestParseKeepsCustomMetrics: a b.ReportMetric unit between ns/op and
// B/op (the BenchmarkSimThroughput shape) must not cost the line its
// B/op and allocs/op, and is itself kept in the metrics map. steps/op
// also yields the derived ns/step.
func TestParseKeepsCustomMetrics(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var sim *Benchmark
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkSimThroughput" {
			sim = &rep.Benchmarks[i]
		}
	}
	if sim == nil {
		t.Fatalf("BenchmarkSimThroughput not parsed: %+v", rep.Benchmarks)
	}
	if sim.NsPerOp != 2492677 || sim.BytesPerOp != 1612 || sim.AllocsPerOp != 21 {
		t.Errorf("SimThroughput = %+v, want 2492677 ns/op, 1612 B/op, 21 allocs/op", *sim)
	}
	if got := sim.Metrics["steps/op"]; got != 54 {
		t.Errorf("steps/op = %v, want 54 (metrics %v)", got, sim.Metrics)
	}
	if got := sim.Metrics["ns/step"]; got != 46160.69 {
		t.Errorf("ns/step = %v, want 46160.69 (2492677 ns/op / 54 steps/op)", got)
	}
	if len(sim.Metrics) != 2 {
		t.Errorf("metrics = %v, want only steps/op and ns/step", sim.Metrics)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input accepted")
	}
}
