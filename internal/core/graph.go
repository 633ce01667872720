package core

import (
	"fmt"
	"slices"
	"sync"

	"entk/internal/pad"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// This file is the toolkit's graph model: the explicit Task / Stage /
// Pipeline vocabulary the executor actually runs, and the engine that
// executes sets of pipelines concurrently. The paper ships three fixed
// execution patterns and names their generalisation as future work
// (Section V: adaptivity, higher-order composition); here the patterns
// are *lowered* onto this model (see lower.go) and any workload the
// patterns cannot express — mixed-width ensembles, heterogeneous
// concurrent campaigns, runtime graph growth — is written against the
// graph directly and submitted through an AppManager (appmanager.go).

// Task is one node of the graph: a named kernel invocation. The kernel
// carries the science tool, its cost-model parameters, core count, and
// data staging (Kernel.InputStaging/OutputStaging); the task adds
// identity and an optional retry override.
type Task struct {
	// Name identifies the task in errors and traces; empty names default
	// to "<stage>.taskNNNNN".
	Name string
	// Kernel is the work. Required.
	Kernel *Kernel
	// Retries, if positive, overrides the kernel's and the pattern's
	// retry budget for this task.
	Retries int
}

// Stage is a set of tasks executed together with a barrier at the end:
// every task of the stage (including retries) settles before the next
// stage of its pipeline starts. The PostStage hook runs at that barrier
// and may grow or prune the graph — the adaptivity point the paper
// plans in Section V.
type Stage struct {
	// Name labels the stage's phase in the report; repeats aggregate
	// under one name. Empty defaults to "stage.<n>" by execution order.
	Name string
	// Tasks are submitted as one bulk wave. A stage may have no tasks
	// and exist only for its PostStage hook (a control node).
	Tasks []Task
	// Streamed selects the runtime's streaming submission path: tasks
	// are dispatched one by one as their client-side submission cost
	// elapses, instead of all at once after the whole wave's cost.
	Streamed bool
	// PostStage, if non-nil, runs after the stage settles — on success
	// or failure (consult StageCtl.Err). It may inspect the stage's
	// units and reshape the rest of the pipeline: insert stages to run
	// next, append stages at the end, or terminate the pipeline. On a
	// failed stage the pipeline aborts after the hook regardless (the
	// hook still runs so rendezvous state can be released).
	PostStage func(ctl *StageCtl) error

	// deferPhase and statsOnError are set by pattern lowering only, to
	// reproduce the reference executor's phase accounting bit for bit:
	// deferPhase accumulates the stage's units into a per-name bucket
	// flushed once when the pipeline set completes (the reference EoP
	// default and pairwise-EE aggregation), and statsOnError records
	// phase stats even when the stage errored (the reference streamed
	// single-stage behaviour).
	deferPhase   bool
	statsOnError bool
}

// Pipeline is an ordered sequence of stages. Pipelines never
// synchronise with each other except through PostStage hooks the
// application writes (e.g. a pairwise rendezvous).
type Pipeline struct {
	// Name labels the pipeline in campaign reports; empty defaults to
	// "p<k>" by submission order.
	Name string
	// Stages run in order; PostStage hooks may extend the list at
	// runtime. Running a pipeline does not mutate it.
	Stages []*Stage
}

// TaskCount returns the number of tasks in the pipeline's current
// stages — the static plan; PostStage hooks may grow it at runtime, so
// the executed count is reported in Report.Tasks.
func (pl *Pipeline) TaskCount() int {
	n := 0
	for _, st := range pl.Stages {
		if st != nil {
			n += len(st.Tasks)
		}
	}
	return n
}

// validate checks an application-built pipeline before execution.
// Lowered pipelines bypass this (they may use empty stage lists and
// lazily resolved kernels to mirror the reference executor).
func (pl *Pipeline) validate() error {
	if pl == nil {
		return fmt.Errorf("core: nil pipeline")
	}
	if len(pl.Stages) == 0 {
		return fmt.Errorf("core: pipeline %q has no stages", pl.Name)
	}
	for i, st := range pl.Stages {
		if st == nil {
			return fmt.Errorf("core: pipeline %q stage %d is nil", pl.Name, i+1)
		}
		for j := range st.Tasks {
			if st.Tasks[j].Kernel == nil {
				return fmt.Errorf("core: pipeline %q stage %d task %d has no kernel", pl.Name, i+1, j+1)
			}
		}
	}
	return nil
}

// StageCtl is the PostStage hook's view of a just-settled stage and its
// lever on the rest of the pipeline.
type StageCtl struct {
	pipeline *Pipeline
	seq      int
	units    []*pilot.ComputeUnit
	err      error

	insert     []*Stage
	appended   []*Stage
	terminated bool
}

// PipelineName returns the owning pipeline's name.
func (c *StageCtl) PipelineName() string { return c.pipeline.Name }

// StageIndex returns the 1-based execution index of the settled stage
// within its pipeline (counting executed stages, including inserted
// ones).
func (c *StageCtl) StageIndex() int { return c.seq }

// Units returns the stage's compute units in task order. With retries
// exhausted a failed task's slot is nil; on a clean stage every unit is
// final and its ExecWindow is queryable — the data adaptive hooks steer
// by.
func (c *StageCtl) Units() []*pilot.ComputeUnit { return c.units }

// Err returns the stage's error, nil on success.
func (c *StageCtl) Err() error { return c.err }

// InsertStages schedules stages to run immediately after this one,
// before the pipeline's remaining stages.
func (c *StageCtl) InsertStages(stages ...*Stage) {
	c.insert = append(c.insert, stages...)
}

// AppendStages schedules stages after the pipeline's current last
// stage.
func (c *StageCtl) AppendStages(stages ...*Stage) {
	c.appended = append(c.appended, stages...)
}

// Terminate ends the pipeline after this stage; remaining and newly
// added stages do not run.
func (c *StageCtl) Terminate() { c.terminated = true }

// ---------------------------------------------------------------------------
// Graph execution engine

// registerDeferredPhase pre-registers a deferred phase bucket so the
// flush order is fixed by the lowering, not by which pipeline finishes
// a stage first. force makes the flush emit the phase even with no
// units (the reference pairwise-EE accounting).
func (ex *executor) registerDeferredPhase(name string, force bool) {
	ex.mu.Lock()
	if _, ok := ex.deferUnits[name]; !ok {
		ex.deferUnits[name] = nil
		ex.deferOrder = append(ex.deferOrder, name)
	}
	if force {
		ex.deferForce[name] = true
	}
	ex.mu.Unlock()
}

// flushDeferredPhases folds the deferred buckets into the phase stats in
// registration order, skipping empty non-forced buckets (the reference
// EoP default skips stages no pipeline reached).
func (ex *executor) flushDeferredPhases() {
	ex.mu.Lock()
	order := ex.deferOrder
	ex.deferOrder = nil
	ex.mu.Unlock()
	for _, name := range order {
		ex.mu.Lock()
		units := ex.deferUnits[name]
		force := ex.deferForce[name]
		delete(ex.deferUnits, name)
		delete(ex.deferForce, name)
		ex.mu.Unlock()
		if len(units) == 0 && !force {
			continue
		}
		span, busy, n := unitStats(units)
		ex.mu.Lock()
		ex.phases.add(name, span, busy, n)
		ex.mu.Unlock()
	}
}

// runPipelineSet executes pipelines to completion — concurrently when
// there are several, inline when there is one — then flushes deferred
// phase buckets. It returns the first pipeline error; other pipelines
// still run to completion (a failing pipeline never cancels its
// siblings, matching the reference executor).
func (ex *executor) runPipelineSet(pls []*Pipeline) error {
	var err error
	if len(pls) == 1 {
		err = ex.runPipeline(pls[0])
	} else {
		var mu sync.Mutex
		var firstErr error
		wg := vclock.NewWaitGroup(ex.v, "graph pipelines")
		for _, pl := range pls {
			pl := pl
			wg.Add(1)
			ex.v.Go(func() {
				defer wg.Done()
				if perr := ex.runPipeline(pl); perr != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = perr
					}
					mu.Unlock()
				}
			})
		}
		wg.Wait()
		err = firstErr
	}
	ex.flushDeferredPhases()
	return err
}

// runPipeline executes one pipeline's stages in order, applying
// PostStage graph edits as it goes. The pipeline value itself is not
// mutated; execution works on a private copy of the stage list.
func (ex *executor) runPipeline(pl *Pipeline) error {
	queue := slices.Clone(pl.Stages)
	seq := 0
	for i := 0; i < len(queue); i++ {
		st := queue[i]
		if st == nil {
			continue
		}
		seq++
		if seq <= ex.skipStages {
			// Resumed prefix: the checkpointed run settled this stage and
			// its counters are already seeded, so its tasks are not
			// re-executed — but a PostStage hook IS replayed, against
			// units rebuilt from the checkpoint snapshot, so the graph
			// growth the original hook produced (InsertStages /
			// AppendStages / Terminate) is reconstructed before the live
			// suffix runs (see checkpoint.go).
			if st.PostStage != nil {
				ctl := &StageCtl{pipeline: pl, seq: seq}
				if err := ex.replayHook(st, ctl); err != nil {
					return err
				}
				if ctl.terminated {
					return nil
				}
				if len(ctl.insert) > 0 {
					queue = slices.Insert(queue, i+1, ctl.insert...)
				}
				if len(ctl.appended) > 0 {
					queue = append(queue, ctl.appended...)
				}
			}
			continue
		}
		ctl := &StageCtl{pipeline: pl, seq: seq}
		err := ex.runStage(st, ctl)
		if err != nil {
			return err
		}
		if st.PostStage != nil && ex.onSettled != nil {
			ex.captureHookStage(seq, ctl.units)
		}
		ex.noteSettled(seq)
		if ctl.terminated {
			return nil
		}
		if len(ctl.insert) > 0 {
			queue = slices.Insert(queue, i+1, ctl.insert...)
		}
		if len(ctl.appended) > 0 {
			queue = append(queue, ctl.appended...)
		}
	}
	return nil
}

// replayHook re-runs a settled stage's PostStage hook during resume.
// The hook sees replay units reconstructed from the checkpoint
// snapshot — same names, kernels, params, and exec windows as the
// settled originals — so a deterministic hook makes the same graph
// edits it made on the interrupted run. Phase stats and counters are
// untouched: the checkpoint already accounts for the settled prefix.
func (ex *executor) replayHook(st *Stage, ctl *StageCtl) error {
	snap := ex.hookSnapshot(ctl.seq)
	if snap == nil {
		return fmt.Errorf("core: resume: stage %d of pipeline %q carries a PostStage hook but the checkpoint has no replay snapshot for it (checkpoint from a pre-replay version?)", ctl.seq, ctl.pipeline.Name)
	}
	var units []*pilot.ComputeUnit
	if len(snap.Units) > 0 {
		units = make([]*pilot.ComputeUnit, len(snap.Units))
		for i, us := range snap.Units {
			units[i] = pilot.NewReplayUnit(ex.v, pilot.UnitDescription{
				Name:   us.Name,
				Kernel: us.Kernel,
				Params: us.Params,
				Cores:  us.Cores,
				MPI:    us.MPI,
				Tags:   us.Tags,
			}, pilot.UnitDone, us.Start, us.Stop)
		}
	}
	ctl.units = units
	return st.PostStage(ctl)
}

// namedTasks returns tasks with every empty name defaulted to
// "<stage>.taskNNNNN". The stage's own slice is returned when every task
// is named (every lowered pattern's are), and never written.
func namedTasks(tasks []Task, stage string) []Task {
	for i := range tasks {
		if tasks[i].Name != "" {
			continue
		}
		named := slices.Clone(tasks)
		for j := i; j < len(named); j++ {
			if named[j].Name == "" {
				named[j].Name = stage + ".task" + pad.Int(j+1, 5)
			}
		}
		return named
	}
	return tasks
}

// retries resolves the task's retry budget: its own override, else its
// kernel's, else the default.
func (t *Task) retries(def int) int {
	if t.Retries > 0 {
		return t.Retries
	}
	return t.Kernel.retries(def)
}

// runStage submits a stage's tasks as one wave, waits out the barrier
// (including retries), records its phase stats, and runs the PostStage
// hook.
func (ex *executor) runStage(st *Stage, ctl *StageCtl) error {
	name := st.Name
	if name == "" {
		name = "stage." + pad.Int(ctl.seq, 1)
	}
	var units []*pilot.ComputeUnit
	var err error
	if len(st.Tasks) > 0 {
		units, err = ex.runTasks(namedTasks(st.Tasks, name), st.Streamed)
		if (err == nil || st.statsOnError) && len(units) > 0 {
			if st.deferPhase {
				ex.mu.Lock()
				// Self-register names the lowering did not pre-register
				// (pre-registration only fixes the flush order), so no
				// bucket is ever silently dropped at flush.
				if _, ok := ex.deferUnits[name]; !ok {
					ex.deferOrder = append(ex.deferOrder, name)
				}
				ex.deferUnits[name] = append(ex.deferUnits[name], units...)
				ex.mu.Unlock()
			} else {
				span, busy, n := unitStats(units)
				ex.mu.Lock()
				ex.phases.add(name, span, busy, n)
				ex.mu.Unlock()
			}
		}
	}
	ctl.units = units
	ctl.err = err
	if st.PostStage != nil {
		if herr := st.PostStage(ctl); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}
