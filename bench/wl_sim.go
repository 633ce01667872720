package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"entk/internal/core"
	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// simMachine is the synthetic 65,536-core machine both engine workloads
// run on (4,096 nodes x 16 cores).
const simMachine = "sim.stress64k"

// tracedExecute is allocate -> run -> deallocate on a fresh clock, each
// call into core wrapped in a span under parent. It is the one place
// the benchmark drives a ResourceHandle, traced or not.
func tracedExecute(e *env, parent int, v vclock.Clock, h *core.ResourceHandle, run func() error) error {
	var err error
	v.Run(func() {
		sp := e.tr.start("core.allocate", parent)
		err = h.Allocate()
		e.tr.end(sp)
		if err != nil {
			return
		}
		sp = e.tr.start("core.run", parent)
		err = run()
		e.tr.end(sp)
		sp = e.tr.start("core.deallocate", parent)
		if derr := h.Deallocate(); err == nil {
			err = derr
		}
		e.tr.end(sp)
	})
	return err
}

// reportTerms reads the TTC decomposition off a finished report;
// coreOvh is the handle's control overhead after deallocation.
func reportTerms(rep *core.Report, coreOvh time.Duration) ttcTerms {
	return ttcTerms{
		total:      rep.TTC.Seconds(),
		exec:       rep.ExecTime().Seconds(),
		patternOvh: rep.PatternOverhead.Seconds(),
		coreOvh:    coreOvh.Seconds(),
		queueWait:  rep.QueueWait.Seconds(),
		agentBoot:  rep.AgentStartup.Seconds(),
	}
}

// reportColumns are the columns of a report the expected.json check
// compares: counts, the decomposition, and the phase aggregates.
func reportColumns(rep *core.Report, terms ttcTerms, events int) map[string]float64 {
	cols := map[string]float64{
		"planned_tasks":  float64(rep.PlannedTasks),
		"tasks":          float64(rep.Tasks),
		"retries":        float64(rep.Retries),
		"phases":         float64(len(rep.Phases)),
		"profile_events": float64(events),
		"ttc_s":          terms.total,
		"exec_s":         terms.exec,
		"pattern_ovh_s":  terms.patternOvh,
		"core_ovh_s":     terms.coreOvh,
		"queue_wait_s":   terms.queueWait,
		"agent_boot_s":   terms.agentBoot,
		"phase_busy_s":   0,
		"phase_tasks":    0,
		"phase_occurs":   0,
	}
	for _, ph := range rep.Phases {
		cols["phase_busy_s"] += ph.Busy.Seconds()
		cols["phase_tasks"] += float64(ph.Tasks)
		cols["phase_occurs"] += float64(ph.Occurrences)
	}
	return cols
}

// profileLayer reports the exact event counts of a workload's own
// profiler: events per unit, and bytes per event of its binary dump.
func profileLayer(prof *profile.Profiler, units int, layer map[string]float64) error {
	n, err := prof.WriteTo(io.Discard)
	if err != nil {
		return fmt.Errorf("bench: profile dump: %w", err)
	}
	events := prof.EventCount()
	layer["profile.events_per_unit"] = float64(events) / float64(units)
	layer["profile.bytes_per_event"] = float64(n) / float64(events)
	return nil
}

// conservation checks what must hold for any seed: every planned task
// settled exactly once, none retried.
func conservation(name string, rep *core.Report, planned int, r *repResult) {
	r.attempted += planned
	if rep.Tasks != planned || rep.PlannedTasks != planned {
		r.failed += abs(planned - rep.Tasks)
		r.problems = append(r.problems, fmt.Sprintf("%s: settled %d of %d planned tasks (report plans %d)",
			name, rep.Tasks, planned, rep.PlannedTasks))
	}
	if rep.Retries != 0 {
		r.failed += rep.Retries
		r.problems = append(r.problems, fmt.Sprintf("%s: %d retries, want 0", name, rep.Retries))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// stress-1m

// stress1M is workload.Stress1MProbe's shape driven from here so the
// calls into core can be timed apart: one bulk stage of identical 30 s
// single-core units, 16 full waves of the pilot. The homogeneity is the
// workload (65,536-wide same-instant wake storms), so the seed changes
// nothing in it.
type stress1M struct {
	units, cores int
}

const stressTaskSeconds = 30.0

func setupStress1M(e *env) (instance, error) {
	if _, err := preflight(); err != nil {
		return nil, err
	}
	return &stress1M{units: e.scaled(1 << 20), cores: e.scaled(65536)}, nil
}

func (s *stress1M) close() {}

func (s *stress1M) rep(e *env) (*repResult, error) {
	r := &repResult{}
	kernel := &core.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": stressTaskSeconds}}
	pat := &core.EnsembleOfPipelines{
		Pipelines:   s.units,
		Stages:      1,
		BulkStages:  true,
		StageKernel: func(int, int) *core.Kernel { return kernel },
	}
	var (
		h   *core.ResourceHandle
		rep *core.Report
		err error
	)
	root := e.tr.start("rep", 0)
	r.wallS, r.cpuS = measure(func() {
		v := vclock.NewVirtual()
		h, err = core.NewResourceHandle(simMachine, s.cores, 10000*time.Hour, core.Config{Clock: v})
		if err != nil {
			return
		}
		err = tracedExecute(e, root, v, h, func() (err error) { rep, err = h.Run(pat); return err })
	})
	e.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("stress-1m: %w", err)
	}
	conservation("stress-1m", rep, s.units, r)
	wantOvh := float64(s.units) * pilot.DefaultConfig().UMSubmitPerUnit.Seconds()
	if got := rep.PatternOverhead.Seconds(); math.Abs(got-wantOvh) > 1e-9*wantOvh {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("stress-1m: pattern overhead %.6fs, want units x submit cost = %.6fs", got, wantOvh))
	}
	r.units, r.coreUnits, r.coreStages, r.campaigns = rep.Tasks, rep.Tasks, 1, 1
	r.latMS = []float64{r.wallS * 1000}
	r.ttc = reportTerms(rep, h.ControlOverhead())
	r.prof = h.Session().Prof
	r.columns = reportColumns(rep, r.ttc, r.prof.EventCount())
	return r, nil
}

// ---------------------------------------------------------------------------
// graph-deep-64k

// graphDeep is many narrow pipelines with seeded task durations through
// one AppManager: the same engine as stress-1m used the other way —
// waves are four units wide and wake at distinct instants.
type graphDeep struct {
	pipelines []*core.Pipeline
	units     int
	stages    int
	cores     int
	busyS     float64 // sum of every task's duration
}

func setupGraphDeep(e *env) (instance, error) {
	if _, err := preflight(); err != nil {
		return nil, err
	}
	const depth, width = 16, 4
	g := &graphDeep{cores: e.scaled(4096)}
	rng := rand.New(rand.NewSource(e.seed))
	g.pipelines = make([]*core.Pipeline, e.scaled(1024))
	for p := range g.pipelines {
		stages := make([]*core.Stage, depth)
		for s := range stages {
			tasks := make([]core.Task, width)
			for t := range tasks {
				// 20-40 s in whole milliseconds, so durations convert to
				// time.Duration exactly and the busy sum is checkable.
				ms := 20000 + rng.Intn(20001)
				g.busyS += float64(ms) / 1000
				tasks[t] = core.Task{Kernel: &core.Kernel{
					Name: "misc.sleep", Params: map[string]float64{"seconds": float64(ms) / 1000}}}
			}
			stages[s] = &core.Stage{Tasks: tasks}
		}
		g.pipelines[p] = &core.Pipeline{Name: fmt.Sprintf("p%04d", p), Stages: stages}
	}
	g.units = len(g.pipelines) * depth * width
	g.stages = len(g.pipelines) * depth
	return g, nil
}

func (g *graphDeep) close() {}

func (g *graphDeep) rep(e *env) (*repResult, error) {
	r := &repResult{}
	var (
		h    *core.ResourceHandle
		camp *core.CampaignReport
		err  error
	)
	root := e.tr.start("rep", 0)
	r.wallS, r.cpuS = measure(func() {
		v := vclock.NewVirtual()
		h, err = core.NewResourceHandle(simMachine, g.cores, 10000*time.Hour, core.Config{Clock: v})
		if err != nil {
			return
		}
		err = tracedExecute(e, root, v, h, func() (err error) {
			camp, err = core.NewAppManager(h).Run(g.pipelines...)
			return err
		})
	})
	e.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("graph-deep-64k: %w", err)
	}
	rep := camp.Campaign
	conservation("graph-deep-64k", rep, g.units, r)
	r.units, r.coreUnits, r.coreStages, r.campaigns = rep.Tasks, rep.Tasks, g.stages, 1
	r.latMS = []float64{r.wallS * 1000}
	r.ttc = reportTerms(rep, h.ControlOverhead())
	r.prof = h.Session().Prof
	r.columns = reportColumns(rep, r.ttc, r.prof.EventCount())
	if busy := r.columns["phase_busy_s"]; math.Abs(busy-g.busyS) > 1e-9*g.busyS {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("graph-deep-64k: phases were busy %.6fs, tasks sum to %.6fs", busy, g.busyS))
	}
	pilotUnits := 0
	for _, pu := range camp.Pilots {
		pilotUnits += pu.Units
	}
	r.columns["pilot_units"] = float64(pilotUnits)
	return r, nil
}
