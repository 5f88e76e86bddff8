package main

// pinned holds the expected rendering of every explorer verdict: the
// engines' execution counts, ValencyReport fields (decision values as
// input positions), SymmetryReport accounting and the E6 pass/fail
// verdicts. The renderings do not depend on the workload seed.
// TestPinnedAgreesWithOracle re-derives the reduced entries it can reach
// from the exhaustive engines.
var pinned = map[string]string{
	// explore-exhaustive
	"E1/alg2/k=4":              "executions=24",
	"E1/alg2/k=5":              "executions=120",
	"E1/alg2/k=6":              "executions=720",
	"E11/fetchadd":             "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[]",
	"E11/naive3":               "configs=16 executions=6 bivalent=7 critical=0 agreement=false values=in0,in1,in2 disagreement=[0 1 2]",
	"E11/queue":                "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[]",
	"E11/swap":                 "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[]",
	"E11/tas":                  "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[]",
	"E11/wrn2":                 "configs=5 executions=2 bivalent=1 critical=1 agreement=true values=in0,in1 disagreement=[]",
	"E20/plain-tas/crashAt=2":  "configs=59 executions=9 bivalent=0 critical=0 agreement=true values=in1 disagreement=[]",
	"E20/plain-tas/crashAt=3":  "configs=151 executions=28 bivalent=68 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 0 0 0 0 0 1 1]",
	"E20/plain-tas/crashAt=4":  "configs=223 executions=36 bivalent=106 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 1 0 0 0 0 0 1]",
	"E20/plain-tas/crashAt=5":  "configs=246 executions=30 bivalent=104 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 1 1 0 0 0 0 0]",
	"E20/plain-wrn2/crashAt=2": "configs=59 executions=9 bivalent=0 critical=0 agreement=true values=in1 disagreement=[]",
	"E20/plain-wrn2/crashAt=3": "configs=151 executions=28 bivalent=68 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 0 0 0 0 0 1 1]",
	"E20/plain-wrn2/crashAt=4": "configs=223 executions=36 bivalent=106 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 1 0 0 0 0 0 1]",
	"E20/plain-wrn2/crashAt=5": "configs=246 executions=30 bivalent=104 critical=0 agreement=false values=in0,in1 disagreement=[0 0 0 1 1 1 1 1 0 0 0 0 0]",
	"E20/rec-tas/crashAt=2":    "configs=59 executions=9 bivalent=0 critical=0 agreement=true values=in1 disagreement=[]",
	"E20/rec-tas/crashAt=3":    "configs=123 executions=22 bivalent=3 critical=1 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-tas/crashAt=4":    "configs=195 executions=32 bivalent=9 critical=3 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-tas/crashAt=5":    "configs=236 executions=30 bivalent=19 critical=6 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-wrn2/crashAt=2":   "configs=867 executions=195 bivalent=9 critical=1 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-wrn2/crashAt=3":   "configs=1143 executions=248 bivalent=10 critical=1 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-wrn2/crashAt=4":   "configs=1813 executions=407 bivalent=4 critical=1 agreement=true values=in0,in1 disagreement=[]",
	"E20/rec-wrn2/crashAt=5":   "configs=3124 executions=726 bivalent=14 critical=4 agreement=true values=in0,in1 disagreement=[]",
	"E4/k=3/procs=4":           "executions=16848",

	// explore-reduced
	"E11/fetchadd/reduced": "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[] {Group:2 Representatives:2 Executions:6 Configs:25 ReducedConfigs:10 Hits:1 Misses:10 Runs:11 Deduped:true}",
	"E11/naive3/reduced":   "configs=16 executions=6 bivalent=7 critical=0 agreement=false values=in0,in1,in2 disagreement=[0 1 2] {Group:2 Representatives:3 Executions:6 Configs:16 ReducedConfigs:9 Hits:0 Misses:9 Runs:9 Deduped:true}",
	"E11/queue/reduced":    "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[] {Group:2 Representatives:2 Executions:6 Configs:25 ReducedConfigs:10 Hits:1 Misses:10 Runs:11 Deduped:true}",
	"E11/swap/reduced":     "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[] {Group:2 Representatives:2 Executions:6 Configs:25 ReducedConfigs:10 Hits:1 Misses:10 Runs:11 Deduped:true}",
	"E11/tas/reduced":      "configs=25 executions=6 bivalent=5 critical=2 agreement=true values=in0,in1 disagreement=[] {Group:2 Representatives:2 Executions:6 Configs:25 ReducedConfigs:10 Hits:1 Misses:10 Runs:11 Deduped:true}",
	"E11/wrn2/reduced":     "configs=5 executions=2 bivalent=1 critical=1 agreement=true values=in0,in1 disagreement=[] {Group:2 Representatives:1 Executions:2 Configs:5 ReducedConfigs:3 Hits:0 Misses:3 Runs:3 Deduped:true}",
	"E4r/k=3/procs=4":      "{Group:6 Representatives:8 Executions:16848 Configs:49729 ReducedConfigs:177 Hits:195 Misses:177 Runs:372 Deduped:true}",
	"E4r/k=3/procs=5":      "{Group:24 Representatives:30 Executions:910800 Configs:2638044 ReducedConfigs:777 Hits:995 Misses:777 Runs:1772 Deduped:true}",
	"E4r/k=3/procs=6":      "{Group:120 Representatives:144 Executions:70106400 Configs:200592149 ReducedConfigs:4257 Hits:6061 Misses:4257 Runs:10318 Deduped:true}",
	"E6/1sWRN_3":           "states=27 pairs=972 failures=0 degenerate=612 passed=true",
	"E6/WRN_2":             "states=9 pairs=144 failures=32 degenerate=0 passed=false",
	"E6/WRN_3":             "states=27 pairs=972 failures=0 degenerate=0 passed=true",
	"E6/WRN_4":             "states=81 pairs=5184 failures=0 degenerate=0 passed=true",
	"E6/WRN_5":             "states=243 pairs=24300 failures=0 degenerate=0 passed=true",
	"E6/WRN_6":             "states=729 pairs=104976 failures=0 degenerate=0 passed=true",
	"E6/consensus-cell":    "states=9 pairs=36 failures=2 degenerate=16 passed=false",
	"E6/register":          "states=3 pairs=27 failures=0 degenerate=0 passed=true",
	"E6/swap":              "states=3 pairs=12 failures=6 degenerate=0 passed=false",
	"E6/test-and-set":      "states=2 pairs=2 failures=1 degenerate=0 passed=false",
}

// controlBroken pins, per crash point, whether the amnesiac restart of
// process 0 breaks plain Algorithm 5 in the negative control: from
// crash point 4 on, process 0 has applied durable updates that its
// restarted incarnation re-applies.
var controlBroken = [controlCrashPoints]bool{false, false, false, false, true, true, true, true, true}
