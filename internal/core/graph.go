package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

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
	// inlineHook marks a lowered pattern's PostStage hook, which never
	// blocks on the clock: it runs inline on the callback that settled
	// the stage instead of on a process of its own, and so do the
	// pattern callbacks it calls (StageKernel, ExchangeLogic, ...).
	inlineHook bool
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

// deferBucket is a deferred phase: units accumulated under a phase
// name, folded into the stats once the pipeline set completes; force
// emits the phase even with no units (the reference pairwise-EE
// accounting).
type deferBucket struct {
	units []*pilot.ComputeUnit
	force bool
}

// registerDeferredPhase returns the named bucket, registering it on
// first use: the lowering pre-registers its phases so the flush order
// is fixed by the lowering, not by which pipeline finishes a stage
// first.
func (ex *executor) registerDeferredPhase(name string, force bool) *deferBucket {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	b := ex.deferred[name]
	if b == nil {
		if ex.deferred == nil {
			ex.deferred = make(map[string]*deferBucket)
		}
		b = &deferBucket{}
		ex.deferred[name] = b
		ex.deferOrder = append(ex.deferOrder, name)
	}
	b.force = b.force || force
	return b
}

// flushDeferredPhases folds the deferred buckets into the phase stats in
// registration order, skipping empty non-forced buckets (the reference
// EoP default skips stages no pipeline reached).
func (ex *executor) flushDeferredPhases() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, name := range ex.deferOrder {
		b := ex.deferred[name]
		if len(b.units) == 0 && !b.force {
			continue
		}
		span, busy, n := unitStats(b.units)
		ex.phases.add(name, span, busy, n)
	}
	ex.deferOrder, ex.deferred = nil, nil
}

// runSet starts n ≥ 1 pipelines and parks the calling process, once,
// until each has called its end: the run's pipelines are a counter, not
// processes.
func runSet(v vclock.Clock, n int, start func(i int, end func())) {
	var live atomic.Int32
	live.Store(int32(n))
	done := vclock.NewEvent(v, "pipelines")
	for i := range n {
		start(i, func() {
			if live.Add(-1) == 0 {
				done.Fire()
			}
		})
	}
	done.Wait()
}

// pipeRun is one pipeline's execution record, advanced by clock
// callbacks rather than a parked process: stage submit (a window on the
// executor's cursor, then the batcher), unit-final notifications
// counting down, the barrier (phase stats, retry wave), the next stage.
// A PostStage hook is user code and may block — the pairwise rendezvous
// does — so it runs on a process, which then continues the chain;
// lowered pattern hooks never block and run inline. A pipeline without
// hooks never leaves the wheel. The stage list is copied, not mutated.
type pipeRun struct {
	ex         *executor
	pl         *Pipeline
	idx        int            // position in its set: the cursor's key
	end        func(*pipeRun) // called once, when the pipeline ends with err
	onUnit     func(*pilot.ComputeUnit)
	onDispatch func([]*pilot.ComputeUnit)
	queue      []*Stage
	i, seq     int
	err        error

	// The stage in flight. result holds the first wave's units, a failed
	// slot refilled by a successful retry; retry holds a retry wave's
	// task indices (nil on the first), attempts is made by the first
	// retry.
	st       *Stage
	name     string
	ctl      StageCtl
	result   []*pilot.ComputeUnit
	attempts []int
	retry    []int
	failures []string
	scratch  []byte

	// The wave in flight, built in the last wave's buffer (the batcher
	// lets go of it once the round created the units), then its units;
	// left counts those not yet final, plus one until dispatched.
	wave  []pilot.WaveUnit
	units []*pilot.ComputeUnit
	t0    time.Duration
	left  atomic.Int32
}

// startPipeline starts pl as the idx-th pipeline of its set.
func (ex *executor) startPipeline(pl *Pipeline, idx int, end func(*pipeRun)) {
	r := &pipeRun{ex: ex, pl: pl, idx: idx, end: end, queue: slices.Clone(pl.Stages)}
	r.onUnit, r.onDispatch = r.unitFinal, r.dispatched
	r.next()
}

// next runs the pipeline from its queue position until it waits — on a
// wave, on a hook process — or ends.
func (r *pipeRun) next() {
	for ; r.i < len(r.queue); r.i++ {
		st := r.queue[r.i]
		if st == nil {
			continue
		}
		r.seq++
		r.st, r.ctl, r.name = st, StageCtl{pipeline: r.pl, seq: r.seq}, st.Name
		if r.seq > r.ex.skipStages {
			r.begin()
			return
		}
		// Resumed prefix: the checkpointed run settled this stage and
		// its counters are already seeded, so its tasks are not
		// re-executed — but a PostStage hook IS replayed, against units
		// rebuilt from the checkpoint snapshot, so the graph growth the
		// original hook produced (InsertStages / AppendStages /
		// Terminate) is reconstructed before the live suffix runs (see
		// checkpoint.go).
		if st.PostStage != nil {
			r.hook(func() error { return r.ex.replayHook(st, &r.ctl) })
			return
		}
	}
	r.end(r)
}

// hook runs a PostStage hook, then continues past it: inline for a
// lowered hook, on a new process for a user's, which may block.
func (r *pipeRun) hook(fn func() error) {
	if r.st.inlineHook {
		r.afterHook(fn())
	} else {
		r.ex.v.Go(func() { r.afterHook(fn()) })
	}
}

// begin starts the stage at the queue position.
func (r *pipeRun) begin() {
	if r.name == "" {
		r.name = "stage." + pad.Int(r.seq, 1)
	}
	r.result, r.attempts, r.retry, r.failures = nil, nil, nil, nil
	if len(r.st.Tasks) == 0 {
		r.settled(nil, nil)
		return
	}
	r.ex.mu.Lock()
	r.ex.tasks += len(r.st.Tasks)
	r.ex.mu.Unlock()
	r.request()
}

// taskName is task i's name, defaulted to "<stage>.taskNNNNN".
func (r *pipeRun) taskName(i int) string {
	if n := r.st.Tasks[i].Name; n != "" {
		return n
	}
	r.scratch = pad.AppendInt(append(append(r.scratch[:0], r.name...), ".task"...), i+1, 5)
	return string(r.scratch)
}

// request builds the next wave — the stage, or its retry indices — and
// queues it on the cursor. Each distinct kernel of the wave is
// validated and bound to one unit description that all its tasks
// share: the memo of the last kernel serves homogeneous waves, the map
// kernels that alternate. A nil kernel must never match the memo's zero
// value — Validate turns it into the "core: nil kernel" error.
func (r *pipeRun) request() {
	n := len(r.st.Tasks)
	if r.retry != nil {
		n = len(r.retry)
	}
	if cap(r.wave) < n {
		r.wave = make([]pilot.WaveUnit, n)
	}
	r.wave = r.wave[:n]
	var lastK *Kernel
	var lastD *pilot.UnitDescription
	bound := map[*Kernel]*pilot.UnitDescription{}
	for i := range r.wave {
		idx := i
		if r.retry != nil {
			idx = r.retry[i]
		}
		if k := r.st.Tasks[idx].Kernel; lastD == nil || k != lastK {
			if bound[k] == nil {
				if err := k.Validate(); err != nil {
					r.settled(nil, err)
					return
				}
				bound[k] = k.bind()
			}
			lastK, lastD = k, bound[k]
		}
		r.wave[i] = pilot.WaveUnit{Desc: lastD, Name: r.taskName(idx)}
		if r.attempts != nil {
			r.wave[i].Attempt = r.attempts[idx]
		}
	}
	r.ex.cur.request(r)
}

// submit opens the wave's window, granted by the cursor: the wave joins
// this instant's batcher round. The kernels were validated at request,
// which covers every check the batcher makes.
func (r *pipeRun) submit() {
	ex := r.ex
	ex.prof.RecordID(ex.patEnt, ex.evSubStart)
	r.t0 = ex.v.Now()
	r.left.Store(int32(len(r.wave)) + 1)
	if err := ex.batch.Enqueue(ex.rank, r.wave, r.st.Streamed, r.onUnit, r.onDispatch); err != nil {
		r.settled(nil, err)
	}
}

// dispatched closes the wave's window, charging it to the pattern
// overhead, and drops the dispatch's hold on the countdown.
func (r *pipeRun) dispatched(units []*pilot.ComputeUnit) {
	ex := r.ex
	dt := ex.v.Now() - r.t0
	ex.prof.RecordID(ex.patEnt, ex.evSubStop)
	ex.mu.Lock()
	ex.patternOverhead += dt
	ex.mu.Unlock()
	r.units = units
	if r.retry == nil {
		r.result = units
	}
	r.unitFinal(nil)
}

// unitFinal counts a unit of the wave down; the last one settles the
// wave inline, in whatever settled the unit. The barrier's only way
// back into the runtime is the batcher's queue — the next wave is
// created and dispatched from the batcher's own timers — so it never
// re-enters an agent or a bind.
func (r *pipeRun) unitFinal(*pilot.ComputeUnit) {
	if r.left.Add(-1) == 0 {
		r.settleWave()
	}
}

// settleWave is the wave's barrier: successes fill the result, failures
// with budget left form the retry wave, and the rest fail the stage.
func (r *pipeRun) settleWave() {
	var next []int
	for i, u := range r.units {
		idx := i
		if r.retry != nil {
			idx = r.retry[i]
		}
		if u.State() == pilot.UnitDone {
			r.result[idx] = u
			continue
		}
		r.result[idx] = nil
		if r.attempts == nil {
			r.attempts = make([]int, len(r.st.Tasks))
		}
		if r.attempts[idx] < r.st.Tasks[idx].retries(r.ex.rs.cfg.MaxRetries) {
			r.attempts[idx]++
			r.ex.mu.Lock()
			r.ex.retries++
			r.ex.mu.Unlock()
			next = append(next, idx)
		} else {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", r.taskName(idx), u.Err()))
		}
	}
	if r.units = nil; len(next) > 0 {
		r.retry = next
		r.request()
		return
	}
	var err error
	if len(r.failures) > 0 {
		err = &PatternError{Pattern: r.ex.name, Failed: r.failures}
	}
	r.settled(r.result, err)
}

// settled is the stage barrier: it records the stage's phase stats and
// runs its PostStage hook.
func (r *pipeRun) settled(units []*pilot.ComputeUnit, err error) {
	ex, st := r.ex, r.st
	if (err == nil || st.statsOnError) && len(units) > 0 {
		var b *deferBucket
		if st.deferPhase {
			b = ex.registerDeferredPhase(r.name, false)
		}
		ex.mu.Lock()
		if b != nil {
			b.units = append(b.units, units...)
		} else {
			span, busy, n := unitStats(units)
			ex.phases.add(r.name, span, busy, n)
		}
		ex.mu.Unlock()
	}
	r.ctl.units, r.ctl.err = units, err
	if st.PostStage == nil {
		r.afterHook(nil)
	} else {
		r.hook(func() error { return st.PostStage(&r.ctl) })
	}
}

// afterHook continues past a stage's barrier and hook, or past a
// resumed stage's hook replay: an error ends the pipeline; otherwise a
// live stage is marked for the campaign tracker, and the stage's graph
// edits are applied.
func (r *pipeRun) afterHook(herr error) {
	c := &r.ctl
	if r.err = c.err; r.err == nil {
		r.err = herr
	}
	if r.err != nil {
		r.end(r)
		return
	}
	if r.seq > r.ex.skipStages {
		r.ex.noteSettled(r.seq, r.st.PostStage != nil, c.units)
	}
	if c.terminated {
		r.end(r)
		return
	}
	if len(c.insert) > 0 {
		r.queue = slices.Insert(r.queue, r.i+1, c.insert...)
	}
	r.queue = append(r.queue, c.appended...)
	r.i++
	r.next()
}

// replayHook re-runs a settled stage's PostStage hook during resume.
// The hook sees replay units reconstructed from the checkpoint
// snapshot — same names, kernels, params, and exec windows as the
// settled originals — so a deterministic hook makes the same graph
// edits it made on the interrupted run. Phase stats and counters are
// untouched: the checkpoint already accounts for the settled prefix.
func (ex *executor) replayHook(st *Stage, ctl *StageCtl) error {
	ex.mu.Lock()
	i := slices.IndexFunc(ex.hookSnaps, func(s StageSnapshot) bool { return s.Seq == ctl.seq })
	ex.mu.Unlock()
	if i < 0 {
		return fmt.Errorf("core: resume: stage %d of pipeline %q carries a PostStage hook but the checkpoint has no replay snapshot for it (checkpoint from a pre-replay version?)", ctl.seq, ctl.pipeline.Name)
	}
	var units []*pilot.ComputeUnit
	if snap := ex.hookSnaps[i]; len(snap.Units) > 0 {
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

// retries resolves the task's retry budget: its own override, else its
// kernel's, else the default.
func (t *Task) retries(def int) int {
	if t.Retries > 0 {
		return t.Retries
	}
	return t.Kernel.retries(def)
}
