package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entk/internal/profile"
)

// env is what a workload gets from the harness: the seed its inputs
// derive from, the scale, a directory it may write under, and the
// tracer (nil in the untraced pass).
type env struct {
	seed    int64
	quick   bool   // 1/64 scale smoke
	scratch string // removed by the harness on every exit path
	tr      *tracer
}

// scaled divides a full-scale size by the quick factor.
func (e *env) scaled(n int) int {
	if e.quick {
		return max(n/64, 1)
	}
	return n
}

// ttcTerms is the paper's TTC decomposition as a workload's own report
// states it: simulated seconds in sim mode, wall seconds in real mode.
type ttcTerms struct {
	total, exec, patternOvh, coreOvh, queueWait, agentBoot float64
}

// repResult is one repetition as measured by the workload itself: the
// timed region covers only the calls into the system under test.
type repResult struct {
	wallS, cpuS float64
	peakRSSMB   float64   // resident-set high-water mark of the repetition, set by the harness
	units       int       // compute units settled
	cpuUnits    int       // what cpuS is divided by, when that is not units
	coreUnits   int       // units and stage barriers the core.run span covered
	coreStages  int       // (0 where core is not called from the benchmark)
	campaigns   int       // sessions or served campaigns settled
	attempted   int       // operations attempted (units, campaigns, requests, processes)
	failed      int       // operations that failed their check
	problems    []string  // what failed, by name
	latMS       []float64 // per-operation latency samples
	bareS       float64   // wall of the same units run without the toolkit (0 in sim: units do no host work)
	ttc         ttcTerms
	layer       map[string]float64 // per-layer values only this workload can observe
	prof        *profile.Profiler  // the session's profiler, where the benchmark owns the session
	columns     map[string]float64 // report columns for the expected.json check
}

// instance is one set-up workload.
type instance interface {
	// rep runs one repetition. Untimed preparation and verification may
	// happen inside; wallS/cpuS cover the timed region only.
	rep(e *env) (*repResult, error)
	// close releases everything set-up acquired.
	close()
}

// workloadDef is one entry of the catalogue. Why each exists is in
// BENCHMARK.json and README.md; the short version is kept here so the
// test can hold the three in step.
type workloadDef struct {
	name string
	why  string
	// tracedReps is how many repetitions the traced pass profiles: short
	// repetitions need several for the 100 Hz CPU profile to say anything.
	tracedReps int
	// simProbes selects the isolated vclock/profile/pilot probes (the
	// layers a virtual-time workload runs on); real-mode gets the
	// realtime probes instead.
	simProbes bool
	setup     func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{name: "paper-figs", tracedReps: 5, simProbes: true, setup: setupPaperFigs,
		why: "the paper's Figures 3-9 and ablations: ~57 short sessions, so per-session fixed cost dominates and steady-state engine wins barely show"},
	{name: "stress-1m", tracedReps: 1, simProbes: true, setup: setupStress1M,
		why: "1,048,576 identical 30 s units on 65,536 cores: vclock park/wake, the agent and pending queue and profile.Record do all the work in same-instant storms"},
	{name: "graph-deep-64k", tracedReps: 2, simProbes: true, setup: setupGraphDeep,
		why: "1,024 pipelines x 16 stages x 4 seeded-duration tasks through one AppManager: core barriers and WaveBatcher dispatch at distinct instants, pending queue always short"},
	{name: "serve-closed", tracedReps: 1, simProbes: true, setup: setupServeClosed,
		why: "in-process entk-serve with a state directory under nproc closed-loop HTTP tenants: admission, persistence and profile.Snapshot reads beside Record writes; the engine does little"},
	{name: "real-true", tracedReps: 1, simProbes: false, setup: setupRealTrue,
		why: "300 x /bin/true through campaign.Run in real mode beside a bare fork/exec loop: every virtual-time layer is bypassed, so a sim-engine change must not move it"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// measure runs fn and returns its wall and process CPU seconds
// (user+sys of this process; exec'd children are not included).
func measure(fn func()) (wallS, cpuS float64) {
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	wallS = time.Since(t0).Seconds()
	return wallS, cpuSeconds() - c0
}

func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// childCPUSeconds is the user+sys CPU of every child reaped so far.
func childCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_CHILDREN) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set, so each repetition reports its own peak and
// the metric is a median over repetitions instead of one process-wide
// maximum. Where the kernel refuses (no /proc, read-only /proc) the mark
// simply keeps accumulating and every repetition reports the same peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident-set high-water mark since the last reset:
// VmHWM, or ru_maxrss (KiB on Linux) where /proc cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssKB is the current resident set from /proc/self/statm (0 if unreadable).
func rssKB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1024
}

// flatten turns any JSON-encodable result into dotted numeric columns
// ("fig3.Rows.0.TTCSec"), the form expected.json stores.
func flatten(prefix string, v any, out map[string]float64) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("bench: flatten %s: %w", prefix, err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		return fmt.Errorf("bench: flatten %s: %w", prefix, err)
	}
	var walk func(key string, n any)
	walk = func(key string, n any) {
		switch x := n.(type) {
		case float64:
			out[key] = x
		case map[string]any:
			for k, c := range x {
				walk(key+"."+k, c)
			}
		case []any:
			for i, c := range x {
				walk(key+"."+strconv.Itoa(i), c)
			}
		}
	}
	walk(prefix, tree)
	return nil
}

// expectedDoc is bench/expected.json: the report columns of the sim
// workloads for seed 1 at full scale. Columns are compared exactly,
// except those listed under tolerant with the relative tolerance they
// are held to: the ones same-instant launch-slot races move from run
// to run at GOMAXPROCS >= 2 (see README, pending ROADMAP direction 1).
type expectedDoc struct {
	Seed     int64                         `json:"seed"`
	Tolerant map[string]map[string]float64 `json:"tolerant"`
	Columns  map[string]map[string]float64 `json:"columns"`
}

// compareColumns checks got against the expected columns of one
// workload and returns one line per mismatch, naming the column.
func compareColumns(workload string, got map[string]float64, exp *expectedDoc) []string {
	want, ok := exp.Columns[workload]
	if !ok {
		return []string{fmt.Sprintf("%s: expected.json has no columns for this workload", workload)}
	}
	tolerant := exp.Tolerant[workload]
	var out []string
	for col, w := range want {
		g, ok := got[col]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: column %s missing, want %v", workload, col, w))
		case tolerant[col] > 0:
			if math.Abs(g-w) > tolerant[col]*math.Abs(w) {
				out = append(out, fmt.Sprintf("%s: column %s = %v, want %v within rel %g", workload, col, g, w, tolerant[col]))
			}
		case g != w:
			out = append(out, fmt.Sprintf("%s: column %s = %v, want exactly %v", workload, col, g, w))
		}
	}
	for col := range got {
		if _, ok := want[col]; !ok {
			out = append(out, fmt.Sprintf("%s: column %s = %v not in expected.json", workload, col, got[col]))
		}
	}
	sort.Strings(out)
	return out
}
