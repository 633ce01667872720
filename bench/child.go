package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// childOpts is one measurement: one workload, one pass, one process.
type childOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	scratch  string
	out      io.Writer // "workload metric value unit" lines, then the result object
}

// metricValue is one metric as the result object carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a child prints: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what a child knows beyond its metrics; the suite collects
// it into the -out file.
type detail struct {
	Problems []string           `json:"problems,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
	Columns  map[string]float64 `json:"columns,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	SelfUS   map[string]float64 `json:"self_us_by_name,omitempty"`
	CPUTop   []string           `json:"cpu_top,omitempty"`
}

// setupPasses is how often set-up runs in the untraced pass; setup_s is
// the median, because a single set-up is one noisy sample.
const setupPasses = 5

// runs collects the repetitions of one pass.
type runs struct {
	reps      []*repResult
	attempted int
	failed    int
	problems  []string
}

func (rs *runs) add(r *repResult) {
	rs.reps = append(rs.reps, r)
	rs.attempted += r.attempted
	rs.failed += r.failed
	rs.problems = append(rs.problems, r.problems...)
}

func (rs *runs) last() *repResult { return rs.reps[len(rs.reps)-1] }

// per returns f of every repetition.
func (rs *runs) per(f func(*repResult) float64) []float64 {
	out := make([]float64, len(rs.reps))
	for i, r := range rs.reps {
		out[i] = f(r)
	}
	return out
}

func unitsPerS(r *repResult) float64 { return float64(r.units) / r.wallS }

// repeat runs repetitions until at least minReps are done and budget
// has passed. Every repetition starts from a collected heap with freed
// pages returned, so one repetition's garbage is not the next one's
// pause or resident set.
func repeat(inst instance, e *env, minReps int, budget time.Duration, into *runs) error {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < budget; n++ {
		settleHeap()
		resetPeakRSS()
		e.tr.nextRep()
		r, err := inst.rep(e)
		if err != nil {
			return err
		}
		if r.units <= 0 || r.wallS <= 0 {
			return fmt.Errorf("bench: %d units settled in %v s: nothing to measure", r.units, r.wallS)
		}
		r.peakRSSMB = peakRSSMB()
		into.add(r)
	}
	return nil
}

// settleHeap collects garbage and returns freed pages to the system.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runChild measures one workload in this process and prints the result.
func runChild(o childOpts) (*result, *detail, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, nil, fmt.Errorf("bench: unknown workload %q", o.workload)
	}
	var exp expectedDoc
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, nil, fmt.Errorf("bench: expected.json: %w", err)
	}
	e := &env{seed: o.seed, quick: o.quick, scratch: o.scratch}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.quick {
		budget = 0 // a smoke run makes the minimum number of repetitions
	}

	passes := setupPasses
	if o.traced || o.quick {
		passes = 1
	}
	var inst instance
	var setupS []float64
	for i := 0; i < passes; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("bench: %s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	res := &result{Metrics: make(map[string]metricValue)}
	det := &detail{Info: make(map[string]float64)}
	var all runs
	if !o.traced {
		if err := repeat(inst, e, 1, budget, &all); err != nil {
			return nil, nil, err
		}
		endToEndMetrics(&all, setupS, res, det)
	} else {
		if err := tracedPass(w, inst, e, budget, &all, res, det); err != nil {
			return nil, nil, err
		}
	}

	// Output check: every repetition's report columns against
	// expected.json for the recorded seed at full scale; conservation
	// (already counted by the workload) for any other seed or scale.
	det.Columns = all.last().columns
	if det.Columns != nil && !o.quick && o.seed == exp.Seed {
		for i, r := range all.reps {
			for _, bad := range compareColumns(w.name, r.columns, &exp) {
				all.failed++
				all.problems = append(all.problems, fmt.Sprintf("repetition %d: %s", i+1, bad))
			}
			all.attempted += len(exp.Columns[w.name])
		}
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Correct = all.failed == 0
	det.Problems = all.problems
	det.Info["failed_share"] = float64(all.failed) / float64(max(all.attempted, 1))

	printChild(o.out, w.name, o.traced, res, det)
	return res, det, nil
}

// endToEndMetrics fills the untraced pass's metrics: medians over the
// repetitions, percentiles over the pooled operation latencies.
func endToEndMetrics(all *runs, setupS []float64, res *result, det *detail) {
	var lat []float64
	for _, r := range all.reps {
		lat = append(lat, r.latMS...)
	}
	ups := all.per(unitsPerS)
	values := map[string]float64{
		"units_per_s": median(ups),
		"cpu_us_per_unit": median(all.per(func(r *repResult) float64 {
			if r.cpuUnits > 0 {
				return r.cpuS * 1e6 / float64(r.cpuUnits)
			}
			return r.cpuS * 1e6 / float64(r.units)
		})),
		"peak_rss_mb":     median(all.per(func(r *repResult) float64 { return r.peakRSSMB })),
		"setup_s":         median(setupS),
		"campaigns_per_s": median(all.per(func(r *repResult) float64 { return float64(r.campaigns) / r.wallS })),
		"latency_ms_p50":  percentile(lat, 50),
		"latency_ms_p95":  percentile(lat, 95),
		"real_overhead_ms_per_unit": median(all.per(func(r *repResult) float64 {
			return (r.wallS - r.bareS) * 1000 / float64(r.units)
		})),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	det.Info["reps"] = float64(len(all.reps))
	det.Info["rep_spread_pct"] = spreadPct(ups)
	det.Info["latency_samples"] = float64(len(lat))
	det.Info["setup_spread_pct"] = spreadPct(setupS)
}

// tracedPass produces the per-layer metrics: untraced reference
// repetitions first (the yardstick for the tracing overhead), then the
// same repetitions under spans, a CPU profile and the runtime watch,
// then the isolated probes.
func tracedPass(w *workloadDef, inst instance, e *env, budget time.Duration, all *runs, res *result, det *detail) error {
	var ref runs
	if err := repeat(inst, e, w.tracedReps, budget/2, &ref); err != nil {
		return err
	}

	e.tr = newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	watch := startRuntimeWatch()
	var traced runs
	err = repeat(inst, e, w.tracedReps, 0, &traced)
	units := 0
	for _, r := range traced.reps {
		units += r.units
	}
	layer := watch.finish(units)
	shares, samples, top, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	for _, b := range cpuBuckets {
		layer["cpu."+b+"_share"] = shares[b]
	}
	det.Info["cpu_samples"] = float64(samples)
	det.CPUTop = top

	spans := e.tr.all()
	e.tr = nil
	last := traced.last()
	for k, v := range last.layer {
		layer[k] = v
	}
	if last.coreUnits > 0 {
		runUS := median(durations(spans, "core.run"))
		layer["core.allocate_ms"] = median(durations(spans, "core.allocate")) / 1000
		layer["core.run_s"] = runUS / 1e6
		layer["core.deallocate_ms"] = median(durations(spans, "core.deallocate")) / 1000
		layer["core.run_us_per_unit"] = runUS / float64(last.coreUnits)
		layer["core.run_us_per_stage"] = runUS / float64(last.coreStages)
	}
	if last.prof != nil {
		// After the watch and the CPU profile stopped: the dump is the
		// benchmark's work, not the workload's.
		if err := profileLayer(last.prof, last.units, layer); err != nil {
			return err
		}
	}
	layer["ttc.total_s"], layer["ttc.exec_s"] = last.ttc.total, last.ttc.exec
	layer["ttc.pattern_ovh_s"], layer["ttc.core_ovh_s"] = last.ttc.patternOvh, last.ttc.coreOvh
	layer["ttc.queue_wait_s"], layer["ttc.agent_boot_s"] = last.ttc.queueWait, last.ttc.agentBoot

	if w.simProbes {
		// Each probe starts from a collected heap, like a repetition.
		settleHeap()
		vclockProbes(e, layer)
		settleHeap()
		if err := profileProbes(e, layer); err != nil {
			return err
		}
		settleHeap()
		if err := pilotProbes(e, layer); err != nil {
			return err
		}
		if last.coreUnits > 0 {
			// Computed, not measured: what core adds on top of the pilot layer.
			layer["core.self_us_per_unit"] = layer["core.run_us_per_unit"] - layer["pilot.unit_us"]
		}
	} else if err := realtimeProbes(e, layer); err != nil {
		return err
	}

	refWall, tracedWall := median(ref.per(wallOf)), median(traced.per(wallOf))
	layer["bench.trace_overhead_pct"] = 100 * (tracedWall - refWall) / refWall
	layer["bench.reps"] = float64(len(ref.reps))
	layer["bench.rep_spread_pct"] = spreadPct(ref.per(unitsPerS))

	for _, m := range perLayer {
		v := layer[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over nothing observed
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	det.Spans = spans
	det.SelfUS = make(map[string]float64)
	byID := make(map[int]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	for id, us := range selfTimes(spans) {
		det.SelfUS[byID[id]] += us
	}
	for _, r := range append(ref.reps, traced.reps...) {
		all.add(r)
	}
	return nil
}

func wallOf(r *repResult) float64 { return r.wallS }

// printChild writes every metric as "workload metric value unit", the
// problems found, and the result object as the last line.
func printChild(w io.Writer, workload string, traced bool, res *result, det *detail) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%s %s %v %s\n", workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, k := range slices.Sorted(maps.Keys(det.Info)) {
		fmt.Fprintf(w, "%s info.%s %v -\n", workload, k, det.Info[k])
	}
	for _, p := range det.Problems {
		fmt.Fprintf(w, "%s FAILED %s\n", workload, p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("bench: result object: %v", err)) // plain data cannot fail to marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}
