package core

import (
	"reflect"
	"strings"
	"testing"

	"entk/internal/vclock"
)

// mkTasks builds n identical sleep tasks.
func mkTasks(n int, seconds float64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Kernel: sleepKernel(seconds)}
	}
	return tasks
}

// runCampaign allocates a fresh handle on the test machine and runs the
// pipelines through an AppManager.
func runCampaign(t *testing.T, v *vclock.Virtual, cores int, build func() []*Pipeline) (*CampaignReport, error) {
	t.Helper()
	h := newHandle(t, v, cores)
	var camp *CampaignReport
	var runErr error
	v.Run(func() {
		if err := h.Allocate(); err != nil {
			t.Error(err)
			return
		}
		camp, runErr = NewAppManager(h).Run(build()...)
		h.Deallocate()
	})
	if camp == nil {
		t.Fatal("campaign did not run")
	}
	return camp, runErr
}

func TestAppManagerHeterogeneousCampaign(t *testing.T) {
	build := func() []*Pipeline {
		wide := &Pipeline{Name: "wide", Stages: []*Stage{
			{Tasks: mkTasks(12, 4)},
			{Tasks: mkTasks(12, 2)},
		}}
		narrow := &Pipeline{Name: "narrow", Stages: []*Stage{
			{Name: "a", Tasks: mkTasks(2, 1)},
			{Name: "b", Tasks: mkTasks(2, 1)},
			{Name: "c", Tasks: mkTasks(2, 1)},
		}}
		return []*Pipeline{wide, narrow}
	}
	camp, err := runCampaign(t, vclock.NewVirtual(), 32, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Pipelines) != 2 {
		t.Fatalf("pipeline reports = %d, want 2", len(camp.Pipelines))
	}
	wideRep, narrowRep := camp.Pipelines[0], camp.Pipelines[1]
	if wideRep.Pattern != "wide" || narrowRep.Pattern != "narrow" {
		t.Errorf("report names = %q/%q", wideRep.Pattern, narrowRep.Pattern)
	}
	if wideRep.Tasks != 24 || narrowRep.Tasks != 6 || camp.Campaign.Tasks != 30 {
		t.Errorf("tasks = %d/%d/%d, want 24/6/30", wideRep.Tasks, narrowRep.Tasks, camp.Campaign.Tasks)
	}
	if wideRep.PlannedTasks != 24 || camp.Campaign.PlannedTasks != 30 {
		t.Errorf("planned = %d/%d, want 24/30", wideRep.PlannedTasks, camp.Campaign.PlannedTasks)
	}
	// Default stage names per pipeline; aggregate phases carry the
	// pipeline prefix.
	if got := wideRep.Phase("stage.1").Tasks; got != 12 {
		t.Errorf("wide stage.1 tasks = %d, want 12", got)
	}
	if got := camp.Campaign.Phase("narrow.b").Tasks; got != 2 {
		t.Errorf("campaign narrow.b tasks = %d, want 2", got)
	}
	// Pipelines ran concurrently: the campaign span is the slowest
	// pipeline, strictly less than the serialized sum.
	maxTTC := wideRep.TTC
	if narrowRep.TTC > maxTTC {
		maxTTC = narrowRep.TTC
	}
	if camp.Campaign.TTC != maxTTC {
		t.Errorf("campaign TTC %v != max pipeline TTC %v", camp.Campaign.TTC, maxTTC)
	}
	if camp.Campaign.TTC >= wideRep.TTC+narrowRep.TTC {
		t.Errorf("campaign TTC %v not overlapping pipelines (%v + %v)",
			camp.Campaign.TTC, wideRep.TTC, narrowRep.TTC)
	}
	if camp.Campaign.QueueWait <= 0 || camp.Campaign.CoreOverhead <= 0 {
		t.Errorf("campaign missing handle-level components: %+v", camp.Campaign)
	}
}

// TestPostStageGrowsAndPrunes is the adaptivity gate: a PostStage hook
// widens the next stage from observed execution (growth), a sibling
// pipeline terminates itself early (pruning), and the resulting
// campaign must be deterministic — bit-identical reports across runs.
func TestPostStageGrowsAndPrunes(t *testing.T) {
	build := func(v *vclock.Virtual) []*Pipeline {
		var grow func(depth, width int) *Stage
		grow = func(depth, width int) *Stage {
			return &Stage{
				Name:  "gen",
				Tasks: mkTasks(width, float64(depth)),
				PostStage: func(ctl *StageCtl) error {
					if ctl.Err() != nil {
						return nil
					}
					done := 0
					for _, u := range ctl.Units() {
						if u != nil {
							if _, _, ok := u.ExecWindow(); ok {
								done++
							}
						}
					}
					if depth < 4 {
						// Widen by what actually completed: 2, 4, 8, 16.
						ctl.InsertStages(grow(depth+1, 2*done))
					}
					return nil
				},
			}
		}
		pruner := &Pipeline{Name: "pruner", Stages: []*Stage{
			{Name: "probe", Tasks: mkTasks(3, 1), PostStage: func(ctl *StageCtl) error {
				ctl.Terminate() // converged immediately: prune the rest
				return nil
			}},
			{Name: "never", Tasks: mkTasks(64, 100)},
		}}
		return []*Pipeline{{Name: "grower", Stages: []*Stage{grow(1, 2)}}, pruner}
	}
	run := func() *CampaignReport {
		v := vclock.NewVirtual()
		camp, err := runCampaign(t, v, 32, func() []*Pipeline { return build(v) })
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	base := run()
	grower, pruner := base.Pipelines[0], base.Pipelines[1]
	if grower.Tasks != 2+4+8+16 {
		t.Errorf("grower executed %d tasks, want 30", grower.Tasks)
	}
	if got := grower.Phase("gen").Occurrences; got != 4 {
		t.Errorf("gen occurrences = %d, want 4", got)
	}
	if pruner.Tasks != 3 {
		t.Errorf("pruner executed %d tasks, want 3 (termination ignored?)", pruner.Tasks)
	}
	if got := pruner.Phase("never").Tasks; got != 0 {
		t.Errorf("pruned stage ran %d tasks", got)
	}
	// PlannedTasks records the static plan; Tasks the adaptive actual.
	if grower.PlannedTasks != 2 || pruner.PlannedTasks != 67 {
		t.Errorf("planned = %d/%d, want 2/67", grower.PlannedTasks, pruner.PlannedTasks)
	}
	// Determinism: repeated runs must reproduce the campaign bit for
	// bit — adaptive growth steered by observed execution does not make
	// the simulation nondeterministic.
	for i := 0; i < 2; i++ {
		if got := run(); !reflect.DeepEqual(base, got) {
			t.Errorf("adaptive campaign not deterministic on run %d:\nbase:\n%v\ngot:\n%v",
				i, base.Campaign, got.Campaign)
		}
	}
}

func TestStageCtlInsertAndAppendOrdering(t *testing.T) {
	v := vclock.NewVirtual()
	var order []string
	mark := func(name string) *Stage {
		k := sleepKernel(1)
		k.Work = func() error { order = append(order, name); return nil }
		return &Stage{Name: name, Tasks: []Task{{Kernel: k}}}
	}
	build := func() []*Pipeline {
		first := mark("first")
		first.PostStage = func(ctl *StageCtl) error {
			ctl.AppendStages(mark("appended"))
			ctl.InsertStages(mark("ins1"), mark("ins2"))
			return nil
		}
		return []*Pipeline{{Name: "p", Stages: []*Stage{first, mark("second")}}}
	}
	if _, err := runCampaign(t, v, 8, build); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "ins1", "ins2", "second", "appended"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

func TestTaskRetriesOverride(t *testing.T) {
	v := vclock.NewVirtual()
	build := func() []*Pipeline {
		k := sleepKernel(1)
		k.FailOn = func(attempt int) bool { return attempt < 2 }
		return []*Pipeline{{Name: "p", Stages: []*Stage{
			{Tasks: []Task{{Name: "flaky", Kernel: k, Retries: 3}}},
		}}}
	}
	camp, err := runCampaign(t, v, 8, build)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Campaign.Retries != 2 {
		t.Errorf("retries = %d, want 2", camp.Campaign.Retries)
	}
}

func TestCampaignPipelineFailureIsIsolated(t *testing.T) {
	v := vclock.NewVirtual()
	build := func() []*Pipeline {
		bad := sleepKernel(1)
		bad.FailOn = func(int) bool { return true }
		return []*Pipeline{
			{Name: "doomed", Stages: []*Stage{
				{Name: "boom", Tasks: []Task{{Name: "boom.task", Kernel: bad}}},
				{Name: "after", Tasks: mkTasks(1, 1)},
			}},
			{Name: "healthy", Stages: []*Stage{{Tasks: mkTasks(4, 2)}}},
		}
	}
	camp, err := runCampaign(t, v, 8, build)
	if err == nil || !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("campaign error = %v, want pipeline-named failure", err)
	}
	if camp.Pipelines[1].Tasks != 4 {
		t.Errorf("healthy pipeline ran %d tasks, want 4 (sibling cancelation?)", camp.Pipelines[1].Tasks)
	}
	if got := camp.Pipelines[0].Phase("after").Tasks; got != 0 {
		t.Errorf("doomed pipeline continued past failed stage: %d tasks", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	v := vclock.NewVirtual()
	h := newHandle(t, v, 8)
	v.Run(func() {
		am := NewAppManager(h)
		if _, err := am.Run(); err == nil {
			t.Error("empty campaign accepted")
		}
		ok := &Pipeline{Stages: []*Stage{{Tasks: mkTasks(1, 1)}}}
		if _, err := am.Run(ok); err == nil || !strings.Contains(err.Error(), "before Allocate") {
			t.Errorf("campaign before Allocate: %v", err)
		}
		if _, err := am.Run(&Pipeline{Name: "x"}); err == nil {
			t.Error("stageless pipeline accepted")
		}
		if _, err := am.Run(&Pipeline{Name: "x", Stages: []*Stage{nil}}); err == nil {
			t.Error("nil stage accepted")
		}
		if _, err := am.Run(&Pipeline{Name: "x", Stages: []*Stage{{Tasks: []Task{{}}}}}); err == nil {
			t.Error("kernel-less task accepted")
		}
		if err := h.Allocate(); err != nil {
			t.Fatal(err)
		}
		camp, err := am.Run(ok)
		if err != nil {
			t.Fatal(err)
		}
		// Anonymous pipelines get positional names.
		if camp.Pipelines[0].Pattern != "p1" {
			t.Errorf("default pipeline name = %q, want p1", camp.Pipelines[0].Pattern)
		}
		h.Deallocate()
	})
}

func TestPipelineTaskCount(t *testing.T) {
	pl := &Pipeline{Stages: []*Stage{
		{Tasks: mkTasks(3, 1)},
		nil,
		{Tasks: mkTasks(2, 1)},
	}}
	if got := pl.TaskCount(); got != 5 {
		t.Errorf("TaskCount = %d, want 5", got)
	}
}
