package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// Fault-tolerance suite: every injected failure must settle — full
// completion when the survivors can absorb the displaced units, a
// PatternError partial report when they cannot — and never deadlock or
// panic. The whole file runs under -race in CI (twice).

// faultPipeline builds one untagged pipeline of width x depth 1-core
// sleep tasks.
func faultPipeline(name string, width, depth int, seconds float64, streamed bool) *Pipeline {
	kernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": seconds}}
	stages := make([]*Stage, depth)
	for s := range stages {
		tasks := make([]Task, width)
		for i := range tasks {
			tasks[i] = Task{Kernel: kernel}
		}
		stages[s] = &Stage{Tasks: tasks, Streamed: streamed}
	}
	return &Pipeline{Name: name, Stages: stages}
}

// infeasiblePipelines builds the partial-failure campaign: a "small"
// pipeline that runs anywhere, and a "big" pipeline of 32-core MPI
// tasks only the wide pilot can host — once that pilot dies, the big
// units are infeasible on the 16-core survivor and must settle as a
// PatternError, while the small pipeline rebinds and completes.
func infeasiblePipelines(streamed bool) []*Pipeline {
	big := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 5},
		Cores: 32, MPI: true}
	bigStages := make([]*Stage, 2)
	for s := range bigStages {
		bigStages[s] = &Stage{Tasks: []Task{{Kernel: big}, {Kernel: big}}, Streamed: streamed}
	}
	return []*Pipeline{
		faultPipeline("small", 8, 2, 5, streamed),
		{Name: "big", Stages: bigStages},
	}
}

// TestFaultMatrix is the injection-point matrix: a pilot of a
// two-machine set dies {before activation, mid-wave, around a stage
// barrier, during a streamed submission drain}, crossed with {the
// survivor can run everything — rebinding completes the campaign
// exactly — or the displaced units are infeasible anywhere else and the
// campaign settles as a PatternError partial report}.
//
// Timing notes: pilot 0 (test.bind.narrow) activates at ~3s, pilot 1
// (test.bind.wide) at ~6s; campaigns gate on the slowest, so dispatch
// starts just past 6s. All fault instants carry a +1ns offset so they
// can never tie with a model-derived event (same-instant wake order is
// engine-dependent; see internal/pilot/faults.go).
func TestFaultMatrix(t *testing.T) {
	// Subtests are named for the clock engine they run on (the product's
	// one virtual engine), as in the earlier engine matrix.
	eng := "handoff"
	points := []struct {
		name     string
		at       time.Duration
		kind     pilot.FaultKind
		streamed bool
	}{
		// Before the narrow pilot's 2s queue wait elapses.
		{"pre-activation", time.Second + time.Nanosecond, pilot.FaultKillPilot, false},
		// Mid first wave (exec spans ~6.3s-11.3s).
		{"mid-wave", 7500*time.Millisecond + time.Nanosecond, pilot.FaultExpireWalltime, false},
		// Around the stage-1 barrier / stage-2 submission window.
		{"stage-barrier", 11300*time.Millisecond + time.Nanosecond, pilot.FaultKillPilot, false},
		// During the streamed wave's per-unit submission drain
		// (dispatches spread from ~6s at 10ms per unit).
		{"batcher-drain", 6200*time.Millisecond + time.Nanosecond, pilot.FaultKillPilot, true},
	}
	for _, pt := range points {
		for _, infeasible := range []bool{false, true} {
			name := pt.name + "/rebind"
			if infeasible {
				name = pt.name + "/infeasible"
			}
			t.Run(eng+"/"+name, func(t *testing.T) {
				v := vclock.NewVirtual()
				rs := newTestSet(t, v)
				rs.Rebind = true
				var pls []*Pipeline
				if infeasible {
					// Kill the wide pilot: the big pipeline's 32-core MPI
					// units exceed the 16-core survivor and must fail at
					// placement (tag affinity would fall back to any
					// eligible pilot; capacity cannot).
					rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
						{At: pt.at, Pilot: 1, Kind: pt.kind},
					}}
					pls = infeasiblePipelines(pt.streamed)
				} else {
					rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
						{At: pt.at, Pilot: 0, Kind: pt.kind},
					}}
					pls = []*Pipeline{faultPipeline("bulk", 24, 2, 5, pt.streamed)}
				}
				var camp *CampaignReport
				var err error
				v.Run(func() {
					if aerr := rs.Allocate(); aerr != nil {
						t.Fatal(aerr)
					}
					camp, err = NewAppManager(rs).Run(pls...)
					rs.Deallocate()
				})
				if camp == nil {
					t.Fatalf("no campaign report (err=%v)", err)
				}
				if len(camp.Pilots) != 2 {
					t.Fatalf("pilot rows = %d, want 2", len(camp.Pilots))
				}
				if infeasible {
					var perr *PatternError
					if !errors.As(err, &perr) {
						t.Fatalf("err = %v, want a PatternError partial report", err)
					}
					// Exact partial accounting: the small pipeline rebinds
					// and completes in full; the big pipeline always fails
					// within stage 1 (its 5s units serialize on the doomed
					// pilot, so the barrier is never reached), submitting
					// exactly that stage's 2 units — each completed before
					// the fault or named in the failure list, never lost.
					small, big := camp.Pipelines[0], camp.Pipelines[1]
					if small.Tasks != 16 || small.Retries != 0 {
						t.Errorf("small pipeline tasks/retries = %d/%d, want 16/0",
							small.Tasks, small.Retries)
					}
					if big.Tasks != 2 || len(perr.Failed) < 1 || len(perr.Failed) > 2 {
						t.Errorf("big pipeline submitted=%d failed=%d, want 2 submitted with 1-2 failures\n%v",
							big.Tasks, len(perr.Failed), perr.Failed)
					}
					if camp.Campaign.Tasks != small.Tasks+big.Tasks {
						t.Errorf("campaign tasks %d != small %d + big %d",
							camp.Campaign.Tasks, small.Tasks, big.Tasks)
					}
				} else {
					if err != nil {
						t.Fatalf("rebind campaign failed: %v", err)
					}
					if camp.Campaign.Tasks != 48 {
						t.Errorf("campaign tasks = %d, want 48", camp.Campaign.Tasks)
					}
					// Rebinding returns units, it does not fail them:
					// recovery must not burn the retry budget.
					if camp.Campaign.Retries != 0 {
						t.Errorf("campaign retries = %d, want 0 (rebind is not a retry)",
							camp.Campaign.Retries)
					}
					// Every unit is counted exactly once, on the pilot
					// where it actually finished.
					if got := camp.Pilots[0].Units + camp.Pilots[1].Units; got != 48 {
						t.Errorf("pilot units %d+%d = %d, want 48",
							camp.Pilots[0].Units, camp.Pilots[1].Units, got)
					}
					if pt.name == "pre-activation" && camp.Pilots[0].Units != 0 {
						t.Errorf("pilot killed before activation ran %d units", camp.Pilots[0].Units)
					}
				}
			})
		}
	}
}

// TestFaultNodeLoss pins partial node loss: the pilot survives at
// reduced capacity, displaced units rebind onto the surviving nodes
// (an extra wave), and a unit too big for the shrunken pilot settles as
// a PatternError instead of wedging the queue.
func TestFaultNodeLoss(t *testing.T) {
	eng := "handoff" // see TestFaultMatrix
	t.Run(eng+"/rebind", func(t *testing.T) {
		v := vclock.NewVirtual()
		registerBindingMachines(t)
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		rs.Rebind = true
		// Lose 1 of the pilot's 2 nodes mid-wave: 16 executing units
		// are displaced and must re-run on the surviving node.
		rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
			{At: 8*time.Second + time.Nanosecond, Pilot: 0, Kind: pilot.FaultNodeLoss, Nodes: 1},
		}}
		var camp *CampaignReport
		v.Run(func() {
			if err := rs.Allocate(); err != nil {
				t.Fatal(err)
			}
			var rerr error
			camp, rerr = NewAppManager(rs).Run(faultPipeline("bulk", 32, 1, 5, false))
			if rerr != nil {
				t.Fatalf("node-loss rebind campaign failed: %v", rerr)
			}
			rs.Deallocate()
		})
		if camp.Campaign.Tasks != 32 || camp.Campaign.Retries != 0 {
			t.Errorf("tasks/retries = %d/%d, want 32/0", camp.Campaign.Tasks, camp.Campaign.Retries)
		}
		// The displaced half re-ran after the survivors finished: the
		// stage spans at least two 5s waves.
		if exec := camp.Pipelines[0].ExecTime(); exec < 10*time.Second {
			t.Errorf("exec span %v, want >= two 5s waves after displacement", exec)
		}
	})
	t.Run(eng+"/infeasible", func(t *testing.T) {
		v := vclock.NewVirtual()
		registerBindingMachines(t)
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		rs.Rebind = true
		rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
			{At: 5*time.Second + time.Nanosecond, Pilot: 0, Kind: pilot.FaultNodeLoss, Nodes: 1},
		}}
		var err2 error
		v.Run(func() {
			if err := rs.Allocate(); err != nil {
				t.Fatal(err)
			}
			// One 32-core MPI task spanning both nodes: after the loss
			// the 16-core remainder can never host it.
			_, err2 = NewAppManager(rs).Run(&Pipeline{Name: "big", Stages: []*Stage{{
				Tasks: []Task{{Kernel: &Kernel{Name: "misc.sleep",
					Params: map[string]float64{"seconds": 30}, Cores: 32, MPI: true}}},
			}}})
			rs.Deallocate()
		})
		var perr *PatternError
		if !errors.As(err2, &perr) || len(perr.Failed) != 1 {
			t.Fatalf("err = %v, want a 1-task PatternError after the node loss", err2)
		}
	})
}

// TestFaultWalltimeExpiry pins the no-recovery path: without Rebind a
// dying pilot fails its units with the walltime cause, which surfaces
// in the PatternError — the campaign settles, it does not hang.
func TestFaultWalltimeExpiry(t *testing.T) {
	v := vclock.NewVirtual()
	registerBindingMachines(t)
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
		{At: 8*time.Second + time.Nanosecond, Pilot: 0, Kind: pilot.FaultExpireWalltime},
	}}
	var err2 error
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		_, err2 = NewAppManager(rs).Run(faultPipeline("bulk", 8, 1, 30, false))
		rs.Deallocate()
	})
	var perr *PatternError
	if !errors.As(err2, &perr) {
		t.Fatalf("err = %v, want PatternError", err2)
	}
	if !strings.Contains(err2.Error(), "walltime expired") {
		t.Errorf("failure cause lost the walltime expiry: %v", err2)
	}
}

// registerStuckMachine installs a machine whose queue never drains
// within any test horizon.
func registerStuckMachine(t *testing.T) {
	t.Helper()
	if err := cluster.Register(&cluster.Machine{
		Name: "test.fault.stuck", Nodes: 8, CoresPerNode: 4, MemPerNodeGB: 8,
		AgentBootTime: time.Second, TaskLaunchLatency: 10 * time.Millisecond,
		NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
		QueueWaitBase: 600 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestActivationDeadline pins the stuck-pilot guard: a pilot that
// misses its activation deadline is killed, and the campaign either
// proceeds on the survivors or errors out — never hangs on waitActive.
func TestActivationDeadline(t *testing.T) {
	registerBindingMachines(t)
	registerStuckMachine(t)

	t.Run("survivor-carries-campaign", func(t *testing.T) {
		v := vclock.NewVirtual()
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.fault.stuck", Cores: 16, Walltime: 100 * time.Hour,
				ActivationDeadline: 10 * time.Second},
			{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		var camp *CampaignReport
		v.Run(func() {
			if err := rs.Allocate(); err != nil {
				t.Fatal(err)
			}
			var rerr error
			camp, rerr = NewAppManager(rs).Run(faultPipeline("bulk", 16, 1, 5, false))
			if rerr != nil {
				t.Fatalf("campaign failed: %v", rerr)
			}
			rs.Deallocate()
		})
		if camp.Campaign.Tasks != 16 {
			t.Errorf("tasks = %d, want 16 on the surviving pilot", camp.Campaign.Tasks)
		}
		if camp.Pilots[0].Units != 0 || camp.Pilots[1].Units != 16 {
			t.Errorf("unit split = %d/%d, want 0/16", camp.Pilots[0].Units, camp.Pilots[1].Units)
		}
	})

	t.Run("all-dead-errors", func(t *testing.T) {
		v := vclock.NewVirtual()
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.fault.stuck", Cores: 16, Walltime: 100 * time.Hour,
				ActivationDeadline: 10 * time.Second},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		var err2 error
		v.Run(func() {
			if err := rs.Allocate(); err != nil {
				t.Fatal(err)
			}
			_, err2 = NewAppManager(rs).Run(faultPipeline("bulk", 4, 1, 5, false))
			rs.Deallocate()
		})
		if err2 == nil || !strings.Contains(err2.Error(), "every pilot failed before activation") {
			t.Errorf("err = %v, want every-pilot-failed error (not a hang)", err2)
		}
	})
}

// TestElasticAddPilot grows the set mid-campaign: a pilot added while
// stage 1 runs picks up stage 2's units, and the campaign report grows
// a utilization row covering only the new pilot's partial lifetime.
func TestElasticAddPilot(t *testing.T) {
	v := vclock.NewVirtual()
	registerBindingMachines(t)
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.narrow", Cores: 16, Walltime: 100 * time.Hour},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.AddPilot(PilotSpec{Resource: "test.bind.wide", Cores: 32,
		Walltime: 100 * time.Hour}); err == nil {
		t.Error("AddPilot before Allocate succeeded")
	}
	var camp *CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		v.Go(func() {
			// Stage 1 (16 units on 16 cores, 30s each) is executing; the
			// new pilot activates in time for stage 2's dispatch.
			v.Sleep(10 * time.Second)
			if _, err := rs.AddPilot(PilotSpec{Resource: "test.bind.wide", Cores: 32,
				Walltime: 100 * time.Hour}); err != nil {
				t.Errorf("AddPilot: %v", err)
			}
		})
		var rerr error
		camp, rerr = NewAppManager(rs).Run(faultPipeline("bulk", 16, 2, 30, false))
		if rerr != nil {
			t.Fatalf("elastic campaign failed: %v", rerr)
		}
		rs.Deallocate()
	})
	if camp.Campaign.Tasks != 32 {
		t.Errorf("tasks = %d, want 32", camp.Campaign.Tasks)
	}
	if len(camp.Pilots) != 2 {
		t.Fatalf("pilot rows = %d, want 2 (added pilot must get a row)", len(camp.Pilots))
	}
	if camp.Pilots[1].Units == 0 {
		t.Error("added pilot ran no units")
	}
	if got := camp.Pilots[0].Units + camp.Pilots[1].Units; got != 32 {
		t.Errorf("pilot units sum = %d, want 32", got)
	}
}

// TestElasticDrainPilot shrinks the set mid-campaign: DrainPilot stops
// new placements, re-dispatches the drained pilot's backlog, waits for
// its running units, and cancels it — the campaign completes exactly
// and the drained pilot keeps its utilization row.
func TestElasticDrainPilot(t *testing.T) {
	v := vclock.NewVirtual()
	registerBindingMachines(t)
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.narrow", Cores: 16, Walltime: 100 * time.Hour},
		{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	var camp *CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		v.Go(func() {
			// Mid-stage-1: the narrow pilot has ~24 running+queued units
			// (96 round-robined over 48 cores). Drain it.
			v.Sleep(10 * time.Second)
			if err := rs.DrainPilot(rs.Pilots()[0]); err != nil {
				t.Errorf("DrainPilot: %v", err)
			}
		})
		var rerr error
		camp, rerr = NewAppManager(rs).Run(faultPipeline("bulk", 96, 2, 5, false))
		if rerr != nil {
			t.Fatalf("drain campaign failed: %v", rerr)
		}
		rs.Deallocate()
	})
	if camp.Campaign.Tasks != 192 || camp.Campaign.Retries != 0 {
		t.Errorf("tasks/retries = %d/%d, want 192/0", camp.Campaign.Tasks, camp.Campaign.Retries)
	}
	if len(camp.Pilots) != 2 {
		t.Fatalf("pilot rows = %d, want 2 (drained pilot keeps its row)", len(camp.Pilots))
	}
	if camp.Pilots[0].Units == 0 {
		t.Error("drained pilot shows no work before the drain")
	}
	if got := camp.Pilots[0].Units + camp.Pilots[1].Units; got != 192 {
		t.Errorf("pilot units sum = %d, want 192", got)
	}
}
