package entk_test

import (
	"reflect"
	"testing"
	"time"

	"entk"
	"entk/internal/core"
)

// This file is the resource-binding regression gate: a single-pilot
// entk.ResourceSet must be a representation change only — bit-identical
// Reports to the classic ResourceHandle (pinned by the graph-parity
// suite and the BENCH sim columns), for both the pattern path (Execute)
// and the campaign path (AppManager).

// setParityPattern builds a fresh pattern per run: bulk stages with
// branching and an injected retry — the structurally densest
// sequentially-submitting parity workload (see
// graph_parity_test.go for the reorder-invariance
// constraints).
func setParityPattern() entk.Pattern {
	return &entk.EnsembleOfPipelines{
		Pipelines:  16,
		Stages:     3,
		BulkStages: true,
		StageKernel: func(stage, pipe int) *entk.Kernel {
			if stage > 1 && pipe%4 == 0 {
				return nil // a quarter of the ensemble branches out
			}
			k := &entk.Kernel{Name: "misc.sleep",
				Params: map[string]float64{"seconds": float64(2 * stage)}}
			if stage == 2 && pipe == 6 {
				k.FailOn = func(attempt int) bool { return attempt < 1 }
				k.Retries = 2
			}
			return k
		},
	}
}

// setParityPipelines builds a fresh heterogeneous campaign per run:
// identical-within-pipeline waves (reorder invariance), mixed widths
// and depths, one 4-core MPI pipeline.
func setParityPipelines() []*entk.Pipeline {
	mk := func(name string, width, depth, cores int, seconds float64) *entk.Pipeline {
		kernel := &entk.Kernel{Name: "misc.sleep",
			Params: map[string]float64{"seconds": seconds},
			Cores:  cores, MPI: cores > 1}
		stages := make([]*entk.Stage, depth)
		for s := range stages {
			tasks := make([]entk.Task, width)
			for t := range tasks {
				tasks[t] = entk.Task{Kernel: kernel}
			}
			stages[s] = &entk.Stage{Tasks: tasks}
		}
		return &entk.Pipeline{Name: name, Stages: stages}
	}
	return []*entk.Pipeline{
		mk("wide", 24, 2, 1, 3),
		mk("mid", 8, 3, 1, 5),
		mk("narrow", 4, 2, 4, 4),
	}
}

// setParityLegs are the executor paths the pattern-path parity runs on.
// Leg names keep the engine/scheduler/executor form of the earlier
// matrix: the clock engine and the scheduler selection are now the
// product's only ones, the executor is still selectable.
var setParityLegs = []struct {
	name string
	exec core.ExecPath
}{
	{"handoff/indexed/graph", core.ExecGraph},
	{"handoff/indexed/ref", core.ExecRef},
}

// TestResourceSetReportParity runs the pattern path on a handle and on
// a single-pilot set, on both executor paths, requiring bit-identical
// Reports.
func TestResourceSetReportParity(t *testing.T) {
	for _, l := range setParityLegs {
		t.Run(l.name, func(t *testing.T) { testSetReportParity(t, l.exec) })
	}
}

func testSetReportParity(t *testing.T, exec core.ExecPath) {
	run := func(asSet bool) *entk.Report {
		v := entk.NewClock()
		cfg := entk.Config{Clock: v, Exec: exec}
		var rep *entk.Report
		var err error
		v.Run(func() {
			if asSet {
				var rs *entk.ResourceSet
				rs, err = entk.NewResourceSet([]entk.PilotSpec{
					{Resource: "xsede.stampede", Cores: 48, Walltime: 1000 * time.Hour},
				}, cfg)
				if err != nil {
					return
				}
				rep, err = rs.Execute(setParityPattern())
			} else {
				var h *entk.ResourceHandle
				h, err = entk.NewResourceHandle("xsede.stampede", 48, 1000*time.Hour, cfg)
				if err != nil {
					return
				}
				rep, err = h.Execute(setParityPattern())
			}
		})
		if err != nil {
			t.Fatalf("asSet=%v: %v", asSet, err)
		}
		return rep
	}
	handle := run(false)
	set := run(true)
	if handle.Tasks == 0 || handle.Retries == 0 {
		t.Fatalf("parity workload did not exercise retries: %+v", handle)
	}
	if !reflect.DeepEqual(handle, set) {
		t.Errorf("single-pilot set diverges from handle:\nhandle:\n%v\nset:\n%v", handle, set)
	}
}

// TestResourceSetCampaignParity runs the same heterogeneous campaign
// through an AppManager over a handle and over a single-pilot set,
// requiring bit-identical CampaignReports — per-pipeline reports,
// campaign aggregate, and per-pilot utilization rows alike. The subtest
// is named for the clock engine it runs on, as in the earlier engine
// matrix.
func TestResourceSetCampaignParity(t *testing.T) {
	t.Run("handoff", testSetCampaignParity)
}

func testSetCampaignParity(t *testing.T) {
	run := func(asSet bool) *entk.CampaignReport {
		v := entk.NewClock()
		cfg := entk.Config{Clock: v}
		var camp *entk.CampaignReport
		var err error
		v.Run(func() {
			var b entk.Binding
			if asSet {
				var rs *entk.ResourceSet
				rs, err = entk.NewResourceSet([]entk.PilotSpec{
					{Resource: "xsede.comet", Cores: 48, Walltime: 1000 * time.Hour},
				}, cfg)
				if err != nil {
					return
				}
				b = rs
			} else {
				var h *entk.ResourceHandle
				h, err = entk.NewResourceHandle("xsede.comet", 48, 1000*time.Hour, cfg)
				if err != nil {
					return
				}
				b = h
			}
			rs := b.(interface {
				Allocate() error
				Deallocate() error
			})
			if err = rs.Allocate(); err != nil {
				return
			}
			camp, err = entk.NewAppManager(b).Run(setParityPipelines()...)
			if derr := rs.Deallocate(); err == nil {
				err = derr
			}
		})
		if err != nil {
			t.Fatalf("asSet=%v: %v", asSet, err)
		}
		return camp
	}
	handle := run(false)
	set := run(true)
	if handle.Campaign.Tasks == 0 || len(handle.Pilots) != 1 {
		t.Fatalf("campaign did not run: %+v", handle.Campaign)
	}
	if handle.Pilots[0].Units != handle.Campaign.Tasks {
		t.Errorf("pilot utilization row counts %d units, campaign ran %d",
			handle.Pilots[0].Units, handle.Campaign.Tasks)
	}
	if !reflect.DeepEqual(handle, set) {
		t.Errorf("single-pilot set campaign diverges from handle:\nhandle:\n%v\nset:\n%v",
			handle.Campaign, set.Campaign)
	}
}

// TestResourceSetValidation pins the set constructor's error paths.
func TestResourceSetValidation(t *testing.T) {
	v := entk.NewClock()
	cfg := entk.Config{Clock: v}
	if _, err := entk.NewResourceSet(nil, cfg); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := entk.NewResourceSet([]entk.PilotSpec{{Cores: 4, Walltime: time.Hour}}, cfg); err == nil {
		t.Error("spec without resource accepted")
	}
	if _, err := entk.NewResourceSet([]entk.PilotSpec{
		{Resource: "xsede.comet", Cores: 0, Walltime: time.Hour}}, cfg); err == nil {
		t.Error("zero-core spec accepted")
	}
	if _, err := entk.NewResourceSet([]entk.PilotSpec{
		{Resource: "xsede.comet", Cores: 4, Walltime: time.Hour}}, entk.Config{}); err == nil {
		t.Error("missing clock accepted")
	}
}
