package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// registerBindingMachines installs two private machines with different
// node widths: narrow 4-core nodes and wide 16-core nodes.
func registerBindingMachines(t *testing.T) {
	t.Helper()
	for _, m := range []*cluster.Machine{
		{
			Name: "test.bind.narrow", Nodes: 8, CoresPerNode: 4, MemPerNodeGB: 8,
			AgentBootTime: time.Second, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 2 * time.Second,
		},
		{
			Name: "test.bind.wide", Nodes: 4, CoresPerNode: 16, MemPerNodeGB: 32,
			AgentBootTime: 2 * time.Second, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 4 * time.Second,
		},
	} {
		if err := cluster.Register(m); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestSet(t *testing.T, v *vclock.Virtual) *ResourceSet {
	t.Helper()
	registerBindingMachines(t)
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.narrow", Cores: 16, Walltime: 100 * time.Hour, Tags: []string{"cpu"}},
		{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour, Tags: []string{"mpi"}},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// bindingPipelines builds a tagged campaign: 8x2 single-core tasks for
// the cpu pilot, 4x2 4-core MPI tasks for the mpi pilot.
func bindingPipelines() []*Pipeline {
	mk := func(name string, width, depth, cores int, tags []string) *Pipeline {
		kernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 5},
			Cores: cores, MPI: cores > 1, Tags: tags}
		stages := make([]*Stage, depth)
		for s := range stages {
			tasks := make([]Task, width)
			for i := range tasks {
				tasks[i] = Task{Kernel: kernel}
			}
			stages[s] = &Stage{Tasks: tasks}
		}
		return &Pipeline{Name: name, Stages: stages}
	}
	return []*Pipeline{
		mk("serial", 8, 2, 1, []string{"cpu"}),
		mk("mpi", 4, 2, 4, []string{"mpi"}),
	}
}

// TestMultiPilotCampaignSplitsByTag runs a tagged campaign over a
// two-machine set and asserts exact tag routing, the per-pilot
// utilization rows, and the binding-level report labels.
func TestMultiPilotCampaignSplitsByTag(t *testing.T) {
	v := vclock.NewVirtual()
	rs := newTestSet(t, v)
	rs.Placement = pilot.PlaceTagAffinity(nil)
	var camp *CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		camp, err = NewAppManager(rs).Run(bindingPipelines()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Deallocate(); err != nil {
			t.Fatal(err)
		}
	})
	if got := camp.Campaign.Resource; got != "test.bind.narrow+test.bind.wide" {
		t.Errorf("campaign resource label = %q", got)
	}
	if got := camp.Campaign.Cores; got != 48 {
		t.Errorf("campaign cores = %d, want 48", got)
	}
	if camp.Campaign.Tasks != 16+8 {
		t.Errorf("campaign tasks = %d, want 24", camp.Campaign.Tasks)
	}
	if len(camp.Pilots) != 2 {
		t.Fatalf("pilot rows = %d, want 2", len(camp.Pilots))
	}
	cpu, mpi := camp.Pilots[0], camp.Pilots[1]
	if cpu.Resource != "test.bind.narrow" || cpu.Units != 16 {
		t.Errorf("cpu pilot row = %+v, want 16 units on test.bind.narrow", cpu)
	}
	if mpi.Resource != "test.bind.wide" || mpi.Units != 8 {
		t.Errorf("mpi pilot row = %+v, want 8 units on test.bind.wide", mpi)
	}
	// Core-busy is exact: 16 x 5s x 1 core and 8 x 5s x 4 cores.
	if cpu.CoreBusy != 80*time.Second || mpi.CoreBusy != 160*time.Second {
		t.Errorf("core-busy = %v/%v, want 80s/160s", cpu.CoreBusy, mpi.CoreBusy)
	}
	for _, u := range camp.Pilots {
		if u.Utilization <= 0 || u.Utilization > 1 {
			t.Errorf("pilot %d utilization %.3f out of range", u.Pilot, u.Utilization)
		}
	}
	// Queue wait is the slowest pilot's (the wide machine's 4s base).
	if camp.Campaign.QueueWait < 4*time.Second {
		t.Errorf("queue wait %v, want >= the slowest pilot's 4s", camp.Campaign.QueueWait)
	}
}

// TestMultiPilotDefaultPlacementSpreads pins the multi-pilot default:
// with no policy assigned, units round-robin over the eligible pilots,
// so an untagged campaign uses both machines.
func TestMultiPilotDefaultPlacementSpreads(t *testing.T) {
	v := vclock.NewVirtual()
	rs := newTestSet(t, v)
	var camp *CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		mpiKernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 2},
			Cores: 8, MPI: true}
		tasks := make([]Task, 6)
		for i := range tasks {
			tasks[i] = Task{Kernel: mpiKernel}
		}
		serialKernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 2}}
		serialTasks := make([]Task, 8)
		for i := range serialTasks {
			serialTasks[i] = Task{Kernel: serialKernel}
		}
		var err error
		camp, err = NewAppManager(rs).Run(
			&Pipeline{Name: "mpi8", Stages: []*Stage{{Tasks: tasks}}},
			&Pipeline{Name: "serial", Stages: []*Stage{{Tasks: serialTasks}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		rs.Deallocate()
	})
	if camp.Pilots[0].Units+camp.Pilots[1].Units != 14 {
		t.Errorf("units across pilots = %d+%d, want 14", camp.Pilots[0].Units, camp.Pilots[1].Units)
	}
	if camp.Pilots[0].Units == 0 || camp.Pilots[1].Units == 0 {
		t.Errorf("round-robin left a pilot unused: %d/%d units",
			camp.Pilots[0].Units, camp.Pilots[1].Units)
	}
}

// TestMultiPilotLeastLoadedSpreads drives PlaceLeastLoaded through a
// live campaign: one bulk wave of twice one pilot's capacity over two
// equal pilots must split evenly — the dispatch loop flushes each run
// at the pilot's free-core count, so the policy sees the units it
// already dispatched (a frozen-counter dispatch would pour the whole
// wave onto pilot 1 and serialize it into two waves).
func TestMultiPilotLeastLoadedSpreads(t *testing.T) {
	v := vclock.NewVirtual()
	registerBindingMachines(t)
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	rs.Placement = pilot.PlaceLeastLoaded()
	var camp *CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		kernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 30}}
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = Task{Kernel: kernel}
		}
		var err error
		camp, err = NewAppManager(rs).Run(&Pipeline{Name: "bulk", Stages: []*Stage{{Tasks: tasks}}})
		if err != nil {
			t.Fatal(err)
		}
		rs.Deallocate()
	})
	if camp.Pilots[0].Units != 32 || camp.Pilots[1].Units != 32 {
		t.Errorf("least-loaded split = %d/%d units, want 32/32",
			camp.Pilots[0].Units, camp.Pilots[1].Units)
	}
	// One wave in parallel across both machines: the stage span is one
	// 30s wave plus launcher slack, not two serialized waves.
	if exec := camp.Pipelines[0].ExecTime(); exec >= 60*time.Second {
		t.Errorf("stage exec span %v: wave serialized onto one pilot", exec)
	}
}

// TestMultiPilotInfeasibleUnitFails pins the error path: a unit no
// pilot of the set can run fails its task with a placement error
// rather than wedging a queue.
func TestMultiPilotInfeasibleUnitFails(t *testing.T) {
	v := vclock.NewVirtual()
	rs := newTestSet(t, v)
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		_, err := NewAppManager(rs).Run(&Pipeline{Name: "big", Stages: []*Stage{{
			Tasks: []Task{{Kernel: &Kernel{Name: "misc.sleep",
				Params: map[string]float64{"seconds": 1}, Cores: 64, MPI: true}}},
		}}})
		if err == nil || !strings.Contains(err.Error(), "no pilot in the set") {
			t.Errorf("infeasible campaign error = %v, want placement failure", err)
		}
		rs.Deallocate()
	})
}

// TestNilKernelErrorsNotPanics pins the seed contract the validation
// memo must preserve: a kernel callback returning nil where a kernel is
// required (EE simulation slots) surfaces "core: nil kernel" as an
// error on the graph executor and on the seed pattern executor — never
// a nil dereference in bind.
func TestNilKernelErrorsNotPanics(t *testing.T) {
	for _, ref := range []bool{false, true} {
		v := vclock.NewVirtual()
		registerTestMachine(t)
		h, err := NewResourceHandle("test.core", 8, 100*time.Hour, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			v.Run(func() {
				_, err := h.Execute(&EnsembleExchange{
					Replicas: 2,
					Cycles:   1,
					SimulationKernel: func(c, r int) *Kernel {
						if r == 1 {
							return nil
						}
						return sleepKernel(1)
					},
					ExchangeKernel: func(c int) *Kernel { return sleepKernel(1) },
				})
				if err == nil || !strings.Contains(err.Error(), "nil kernel") {
					t.Errorf("ref=%v: err = %v, want nil-kernel error", ref, err)
				}
			})
		}
		if ref {
			withRefExecutor(t, run)
		} else {
			run()
		}
	}
}

// TestResourceSetLifecycleErrors pins the allocation state machine.
func TestResourceSetLifecycleErrors(t *testing.T) {
	v := vclock.NewVirtual()
	rs := newTestSet(t, v)
	v.Run(func() {
		if _, err := rs.Run(&EnsembleOfPipelines{Pipelines: 1, Stages: 1,
			StageKernel: func(int, int) *Kernel { return sleepKernel(1) }}); err == nil {
			t.Error("Run before Allocate succeeded")
		}
		if err := rs.Deallocate(); err == nil {
			t.Error("Deallocate before Allocate succeeded")
		}
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := rs.Allocate(); err == nil {
			t.Error("double Allocate succeeded")
		}
		if err := rs.Deallocate(); err != nil {
			t.Error(err)
		}
	})
}

// TestResourceSetRejectsBadFaultPlanFirst pins that Allocate checks the
// fault plan before it charges any overhead or submits a pilot: a plan
// that targets a pilot the set does not have leaves the set unallocated
// at the instant it started, and a corrected retry allocates.
func TestResourceSetRejectsBadFaultPlanFirst(t *testing.T) {
	registerBindingMachines(t)
	v := vclock.NewVirtual()
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: "test.bind.narrow", Cores: 16, Walltime: time.Hour},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	rs.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
		{At: time.Second, Pilot: 3, Kind: pilot.FaultKillPilot},
	}}
	v.Run(func() {
		err := rs.Allocate()
		if err == nil || !strings.Contains(err.Error(), "targets pilot 3 of 1") {
			t.Errorf("Allocate = %v, want the fault plan rejected", err)
		}
		if n := len(rs.Pilots()); n != 0 {
			t.Errorf("rejected Allocate submitted %d pilot(s)", n)
		}
		if now := v.Now(); now != 0 {
			t.Errorf("rejected Allocate charged %v", now)
		}
		rs.Faults = &pilot.FaultPlan{}
		if err := rs.Allocate(); err != nil {
			t.Fatalf("corrected retry: %v", err)
		}
		if err := rs.Deallocate(); err != nil {
			t.Error(err)
		}
	})
	if now := v.Now(); now >= time.Hour {
		t.Errorf("clock ran on to %v, past the pilot's walltime", now)
	}
}

// TestResourceSetLeavesNoProcess pins that no pilot of a set parks a
// process. Each session runs one campaign on a two-pilot set and then
// ends with both pilots alive and never released: a phantom process
// (Attach with no matching exit) holds the clock at that instant for
// good, as an abandoned simulation would. A Rebind set's withdrawal of
// a dead pilot and an EagerSubmit set's wait for the first activation
// both run on the pilots' settle callbacks, so no goroutine outlives
// the sessions — not even for the eager set's slow pilot, still queued
// when the session ends.
func TestResourceSetLeavesNoProcess(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, v *vclock.Virtual) (*ResourceSet, []*Pipeline)
	}{
		{"rebind", func(t *testing.T, v *vclock.Virtual) (*ResourceSet, []*Pipeline) {
			rs := newTestSet(t, v)
			rs.Placement = pilot.PlaceTagAffinity(nil)
			rs.Rebind = true
			return rs, bindingPipelines()
		}},
		{"eager", func(t *testing.T, v *vclock.Virtual) (*ResourceSet, []*Pipeline) {
			registerEagerMachines(t)
			rs, err := NewResourceSet([]PilotSpec{
				{Resource: "test.eager.fast", Cores: 16, Walltime: 100 * time.Hour, Tags: []string{"fast"}},
				{Resource: "test.eager.slow", Cores: 16, Walltime: 100 * time.Hour, Tags: []string{"slow"}},
			}, Config{Clock: v})
			if err != nil {
				t.Fatal(err)
			}
			rs.Placement = pilot.PlaceTagAffinity(nil)
			rs.EagerSubmit = true
			return rs, []*Pipeline{eagerCampaign()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for range 5 {
				v := vclock.NewVirtual()
				rs, pls := tc.setup(t, v)
				v.Run(func() {
					if err := rs.Allocate(); err != nil {
						t.Fatal(err)
					}
					if _, err := NewAppManager(rs).Run(pls...); err != nil {
						t.Fatal(err)
					}
					v.Attach()
				})
			}
			after := runtime.NumGoroutine()
			for i := 0; i < 100 && after > before; i++ {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%d goroutines outlive 5 sessions (%d before, %d after)", after-before, before, after)
			}
		})
	}
}
