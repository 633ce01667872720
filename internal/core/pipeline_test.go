package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"entk/internal/vclock"
)

// peakGoroutines samples runtime.NumGoroutine from clock callbacks and
// keeps the peak.
type peakGoroutines struct{ peak int }

func (p *peakGoroutines) sample() {
	p.peak = max(p.peak, runtime.NumGoroutine())
}

// TestPipelinesParkNoProcess gates the pipeline record: a campaign of
// 256 pipelines and a pattern run of 64 pipelines advance on clock
// callbacks, so the process count stays flat however many pipelines are
// live. Each kernel's FailOn runs inline in the agent's callback as its
// unit's execution ends — the instant of every barrier — and samples
// the goroutine count there; so do the pattern's StageKernel calls,
// which run at each barrier as the lowering builds the next stage.
//
// Before pipelines were records (one parked process per pipeline), the
// same test read a peak of 258 goroutines over a base of 2 for the
// campaign, and 66 over 2 for the pattern run.
func TestPipelinesParkNoProcess(t *testing.T) {
	const slack = 8
	var p peakGoroutines
	sampled := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 10},
		FailOn: func(int) bool { p.sample(); return false }}

	v := vclock.NewVirtual()
	h := newHandle(t, v, 128)
	var base int
	v.Run(func() {
		if err := h.Allocate(); err != nil {
			t.Fatal(err)
		}
		pls := make([]*Pipeline, 256)
		for i := range pls {
			pls[i] = &Pipeline{}
			for range 8 {
				pls[i].Stages = append(pls[i].Stages, &Stage{Tasks: []Task{
					{Kernel: sampled}, {Kernel: sampled}, {Kernel: sampled}, {Kernel: sampled}}})
			}
		}
		base = runtime.NumGoroutine()
		if _, err := NewAppManager(h).Run(pls...); err != nil {
			t.Fatal(err)
		}
		h.Deallocate()
	})
	if p.peak == 0 || p.peak > base+slack {
		t.Errorf("campaign of 256 pipelines: goroutine peak %d over a base of %d, want <= base+%d", p.peak, base, slack)
	}

	p = peakGoroutines{}
	v = vclock.NewVirtual()
	h = newHandle(t, v, 128)
	v.Run(func() {
		if err := h.Allocate(); err != nil {
			t.Fatal(err)
		}
		base = runtime.NumGoroutine()
		rep, err := h.Run(&EnsembleOfPipelines{Pipelines: 64, Stages: 8,
			StageKernel: func(int, int) *Kernel { p.sample(); return sleepKernel(10) }})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks != 64*8 {
			t.Errorf("pattern run settled %d tasks, want %d", rep.Tasks, 64*8)
		}
		h.Deallocate()
	})
	if p.peak == 0 || p.peak > base+slack {
		t.Errorf("pattern run of 64 pipelines: goroutine peak %d over a base of %d, want <= base+%d", p.peak, base, slack)
	}
}

// TestPatternCallbackMustNotBlock pins the rule that a pattern's own
// callbacks run inline at stage barriers, on the clock's callback path:
// a StageKernel that blocks on the clock there is a programming error,
// and the run fails with the clock's diagnostic rather than hanging or
// silently reordering. The first stage's kernels are built before the
// run starts, so stage 2's are the ones that block.
func TestPatternCallbackMustNotBlock(t *testing.T) {
	v := vclock.NewVirtual()
	h := newHandle(t, v, 8)
	var got any
	func() {
		defer func() { got = recover() }()
		v.Run(func() {
			if err := h.Allocate(); err != nil {
				t.Fatal(err)
			}
			h.Run(&EnsembleOfPipelines{Pipelines: 2, Stages: 2,
				StageKernel: func(st, _ int) *Kernel {
					if st == 2 {
						v.Sleep(time.Second)
					}
					return sleepKernel(10)
				}})
		})
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "vclock: an After callback blocked on the clock") {
		t.Fatalf("a StageKernel blocking at a barrier: recovered %v, want the clock's blocked-callback diagnostic", got)
	}
}

// TestPairwiseBlockingHookReport runs pairwise ensemble exchanges,
// whose lowered simulation hook blocks at the partner rendezvous and so
// runs on a process of its own. A two-replica run completes, and its
// report equals the one recorded when each pipeline was a parked
// process and the first replica to arrive waited while the second ran
// the exchange. (With more replicas the report moves by the cursor's
// order rule: the first stages' grant order at t=0, and so which
// replica's unit launched first, was goroutine order.) A six-replica
// run with unequal simulations, where a higher replica often arrives
// first, reports the same in every run.
func TestPairwiseBlockingHookReport(t *testing.T) {
	run := func(replicas, cycles int, sim func(cycle, r int) float64) *Report {
		v := vclock.NewVirtual()
		h := newHandle(t, v, 32)
		var rep *Report
		v.Run(func() {
			if err := h.Allocate(); err != nil {
				t.Fatal(err)
			}
			var err error
			rep, err = h.Run(&EnsembleExchange{
				Replicas: replicas, Cycles: cycles, Mode: PairwiseExchange,
				SimulationKernel: func(cycle, r int) *Kernel { return sleepKernel(sim(cycle, r)) },
				ExchangeKernel:   func(int) *Kernel { return sleepKernel(2) },
			})
			if err != nil {
				t.Fatal(err)
			}
			h.Deallocate()
		})
		return rep
	}
	if got := run(2, 5, func(int, int) float64 { return 10 }); !reflect.DeepEqual(got, pairwiseParentReport) {
		t.Errorf("pairwise report moved:\n got %+v\nwant %+v", got, pairwiseParentReport)
	}
	uneven := func(cycle, r int) float64 { return float64(10 + (r*7+cycle*3)%5) }
	first := run(6, 4, uneven)
	for range 3 {
		if again := run(6, 4, uneven); !reflect.DeepEqual(again, first) {
			t.Fatalf("pairwise report differs between runs:\n%+v\n%+v", again, first)
		}
	}
}

// pairwiseParentReport is the two-replica report of
// TestPairwiseBlockingHookReport as the first-arriver rendezvous on one
// process per pipeline produced it.
var pairwiseParentReport = &Report{
	Pattern: "ensemble-exchange", Resource: "test.core", Cores: 32,
	PlannedTasks: 15, Tasks: 13,
	TTC:             56190 * time.Millisecond,
	CoreOverhead:    1010 * time.Millisecond,
	PatternOverhead: 130 * time.Millisecond,
	QueueWait:       5010 * time.Millisecond,
	AgentStartup:    1990 * time.Millisecond,
	Phases: []PhaseStat{
		{Name: "simulation", Span: 54150 * time.Millisecond, Busy: 100 * time.Second, Tasks: 10, Occurrences: 1},
		{Name: "exchange", Span: 46140 * time.Millisecond, Busy: 6 * time.Second, Tasks: 3, Occurrences: 1},
	},
}

// TestCheckpointLazyMatchesEager gates the campaign tracker, which
// keeps only counters and log lengths at a barrier and builds the
// checkpoint when one is asked for. The fixture has a PostStage hook on
// every stage, a retry, and two stages that share a name. Each hook
// runs after its stage's phase stats are recorded and before its
// barrier is marked, so Checkpoint there must equal the eager snapshot
// of the previous barrier; the hook then predicts its own barrier's
// eager snapshot, built the way the tracker used to build one at every
// barrier (a copy of every phase so far and of every hook snapshot).
// The second stage's hook blocks while another process calls
// Checkpoint, and the checkpoint after Run equals the last barrier's.
func TestCheckpointLazyMatchesEager(t *testing.T) {
	v := vclock.NewVirtual()
	h := newHandle(t, v, 16)
	am := NewAppManager(h)
	eager := []PipelineCheckpoint{{Name: "p"}}
	check := func(ctl *StageCtl, what string) {
		if got := am.Checkpoint().Pipelines[0]; !reflect.DeepEqual(got, eager[len(eager)-1]) {
			t.Errorf("stage %d %s: checkpoint\n got %+v\nwant %+v", ctl.StageIndex(), what, got, eager[len(eager)-1])
		}
	}
	predict := func(ctl *StageCtl) {
		ex := am.track[0]
		ex.mu.Lock()
		eager = append(eager, PipelineCheckpoint{
			Name:            "p",
			SettledStages:   ctl.StageIndex(),
			Tasks:           ex.tasks,
			Retries:         ex.retries,
			PatternOverhead: ex.patternOverhead,
			Phases:          ex.phases.stats(),
			HookStages:      append(append([]StageSnapshot(nil), ex.hookSnaps...), hookStageSnapshot(ctl.StageIndex(), ctl.Units())),
		})
		ex.mu.Unlock()
	}
	hook := func(ctl *StageCtl) error {
		check(ctl, "in its hook")
		predict(ctl)
		return nil
	}
	blocking := func(ctl *StageCtl) error {
		release := vclock.NewEvent(v, "checkpoint taken")
		v.Go(func() {
			v.Sleep(time.Second)
			check(ctl, "while its hook is parked")
			release.Fire()
		})
		release.Wait()
		return hook(ctl)
	}
	flaky := sleepKernel(3)
	flaky.FailOn = func(attempt int) bool { return attempt < 1 }
	pl := &Pipeline{Name: "p", Stages: []*Stage{
		{Name: "a", Tasks: mkTasks(2, 5), PostStage: hook},
		{Name: "b", Tasks: []Task{{Kernel: flaky, Retries: 1}, {Kernel: sleepKernel(4)}}, PostStage: blocking},
		{Name: "a", Tasks: mkTasks(1, 2), PostStage: hook},
		{Name: "control", PostStage: hook},
	}}
	v.Run(func() {
		if err := h.Allocate(); err != nil {
			t.Fatal(err)
		}
		if _, err := am.Run(pl); err != nil {
			t.Fatal(err)
		}
		h.Deallocate()
	})
	if len(eager) != 5 || eager[4].Retries != 1 || len(eager[4].Phases) != 2 {
		t.Fatalf("fixture did not exercise the barriers: %+v", eager)
	}
	if got := am.Checkpoint().Pipelines[0]; !reflect.DeepEqual(got, eager[4]) {
		t.Errorf("checkpoint after Run\n got %+v\nwant %+v", got, eager[4])
	}
}
