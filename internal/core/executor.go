package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"entk/internal/pad"
	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// PatternError reports tasks that failed after exhausting their retries.
type PatternError struct {
	Pattern string
	Failed  []string // task names with causes
}

// Error implements error.
func (e *PatternError) Error() string {
	return fmt.Sprintf("core: pattern %s: %d task(s) failed: %s",
		e.Pattern, len(e.Failed), strings.Join(e.Failed, "; "))
}

// eopTaskName formats "pipeNNNN.stageMM" (pad: task naming sits on the
// per-unit hot path).
func eopTaskName(pipe, stage int) string {
	return string(appendEoPTaskName(nil, pipe, stage))
}

// appendEoPTaskName appends eopTaskName(pipe, stage) to dst.
func appendEoPTaskName(dst []byte, pipe, stage int) []byte {
	dst = pad.AppendInt(append(dst, "pipe"...), pipe, 4)
	return pad.AppendInt(append(dst, ".stage"...), stage, 2)
}

// eeTaskName formats "cycleNNN.replicaNNNNN".
func eeTaskName(cycle, replica int) string {
	return "cycle" + pad.Int(cycle, 3) + ".replica" + pad.Int(replica, 5)
}

// executor is the execution engine's per-run state: it binds kernels
// into pilot units, submits them (serialized, like the real toolkit's
// client process), enforces synchronisation, retries failures, and
// accumulates the report. Patterns are lowered to Pipelines (lower.go)
// and run on the graph executor (graph.go); the seed pattern executor
// the graph-parity tests compare against lives in executor_ref_test.go.
type executor struct {
	rs    *ResourceSet
	pat   Pattern // nil for AppManager pipeline runs
	name  string  // report label: pattern name or pipeline name
	v     vclock.Clock
	batch *pilot.WaveBatcher

	// subLock serializes task submission; the time spent holding it is
	// the pattern overhead.
	subLock *vclock.Semaphore
	// rank orders this executor's waves within a same-instant batcher
	// round: a campaign pipeline's executor takes the pipeline's index.
	// One executor's own waves never share a round, since each holds
	// subLock until its round is created.
	rank int

	// Pattern-overhead profiler ids, interned once per executor: every
	// tracked submission brackets itself on the "pattern" entity, so the
	// growing overhead component of the TTC is reconstructible from
	// events without per-batch string formatting.
	prof                  *profile.Profiler
	patEnt                profile.EntityID
	evSubStart, evSubStop profile.NameID

	mu              sync.Mutex
	planned         int // static task plan (Pattern/Pipeline TaskCount)
	patternOverhead time.Duration
	tasks           int
	retries         int
	phases          *phaseAccumulator

	// Deferred phase buckets (graph executor only): units accumulated
	// under a phase name and folded into the stats once the pipeline set
	// completes. See registerDeferredPhase in graph.go.
	deferOrder []string
	deferUnits map[string][]*pilot.ComputeUnit
	deferForce map[string]bool

	// Checkpoint hooks (campaign pipeline runs): skipStages makes
	// runPipeline treat the first n stages as already settled (the
	// resumed prefix), and onSettled — when set — receives a cumulative
	// snapshot after every settled stage barrier. Both are configured
	// before run() starts; onSettled is called outside ex.mu.
	// hookSnaps accumulates the settled-unit snapshots of hook-carrying
	// stages (seeded from the checkpoint on resume, grown at each new
	// hook barrier) — runPipeline replays skipped hooks from it, and
	// noteSettled carries it into every later checkpoint.
	skipStages int
	onSettled  func(PipelineCheckpoint)
	hookSnaps  []StageSnapshot
}

func newExecutor(rs *ResourceSet, p Pattern) *executor {
	ex := newNamedExecutor(rs, p.PatternName())
	ex.pat = p
	ex.planned = p.TaskCount()
	return ex
}

// newNamedExecutor builds an executor without a pattern — the AppManager
// uses it to run application-built pipelines directly.
func newNamedExecutor(rs *ResourceSet, name string) *executor {
	ex := &executor{
		rs:         rs,
		name:       name,
		v:          rs.cfg.Clock,
		batch:      rs.batch,
		subLock:    vclock.NewSemaphore(rs.cfg.Clock, "core submit", 1),
		phases:     newPhaseAccumulator(),
		deferUnits: make(map[string][]*pilot.ComputeUnit),
		deferForce: make(map[string]bool),
	}
	ex.prof = rs.sess.Prof
	ex.patEnt = ex.prof.Intern("pattern")
	ex.evSubStart = ex.prof.InternName("submit_start")
	ex.evSubStop = ex.prof.InternName("submit_stop")
	return ex
}

// seedFrom preloads the executor from a checkpoint snapshot: the
// settled prefix is skipped and the counters continue where the
// interrupted run stopped, so the resumed report agrees with an
// uninterrupted one on every reorder-invariant column.
func (ex *executor) seedFrom(pc *PipelineCheckpoint) {
	ex.skipStages = pc.SettledStages
	ex.tasks = pc.Tasks
	ex.retries = pc.Retries
	ex.patternOverhead = pc.PatternOverhead
	ex.phases.merge("", pc.Phases)
	ex.hookSnaps = append([]StageSnapshot(nil), pc.HookStages...)
}

// hookSnapshot returns the checkpointed unit snapshot for the hook
// stage at execution index seq, nil if the checkpoint never recorded
// one (a stage without a hook, or a pre-v2 checkpoint).
func (ex *executor) hookSnapshot(seq int) *StageSnapshot {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for i := range ex.hookSnaps {
		if ex.hookSnaps[i].Seq == seq {
			return &ex.hookSnaps[i]
		}
	}
	return nil
}

// captureHookStage snapshots a just-settled hook stage's units for
// checkpointing, so a later Resume can replay the PostStage hook.
// Only campaign runs (onSettled set) pay for this; lowered pattern
// runs are never resumed and skip it.
func (ex *executor) captureHookStage(seq int, units []*pilot.ComputeUnit) {
	// nil (not empty) when the stage had no units, so an in-memory
	// checkpoint stays DeepEqual to its serialised round trip.
	var snaps []UnitSnapshot
	for _, u := range units {
		if u == nil {
			continue
		}
		start, stop, _ := u.ExecWindow()
		d := u.Desc()
		snaps = append(snaps, UnitSnapshot{
			Name:   d.Name,
			Kernel: d.Kernel,
			Params: d.Params,
			Cores:  d.Cores,
			MPI:    d.MPI,
			Tags:   d.Tags,
			Start:  start,
			Stop:   stop,
		})
	}
	ex.mu.Lock()
	ex.hookSnaps = append(ex.hookSnaps, StageSnapshot{Seq: seq, Units: snaps})
	ex.mu.Unlock()
}

// noteSettled snapshots the executor at a settled stage barrier for the
// campaign tracker; seq is the stage's execution index from the
// pipeline's start (including any resumed prefix).
func (ex *executor) noteSettled(seq int) {
	if ex.onSettled == nil {
		return
	}
	ex.mu.Lock()
	snap := PipelineCheckpoint{
		Name:            ex.name,
		SettledStages:   seq,
		Tasks:           ex.tasks,
		Retries:         ex.retries,
		PatternOverhead: ex.patternOverhead,
		Phases:          ex.phases.stats(),
	}
	if len(ex.hookSnaps) > 0 {
		snap.HookStages = append([]StageSnapshot(nil), ex.hookSnaps...)
	}
	ex.mu.Unlock()
	ex.onSettled(snap)
}

// report assembles the final Report.
func (ex *executor) report() *Report {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return &Report{
		Pattern:         ex.name,
		Resource:        ex.rs.BindingLabel(),
		Cores:           ex.rs.TotalCores(),
		PlannedTasks:    ex.planned,
		Tasks:           ex.tasks,
		Retries:         ex.retries,
		PatternOverhead: ex.patternOverhead,
		Phases:          ex.phases.stats(),
	}
}

// execHook, when non-nil, runs every pattern in place of the graph
// executor. Only this package's tests set it, to run the seed pattern
// executor (executor_ref_test.go) against the graph executor.
var execHook func(*executor) error

// run executes the pattern on the graph executor, or on execHook when a
// test installed one.
func (ex *executor) run() error {
	if execHook != nil {
		return execHook(ex)
	}
	return ex.runGraph()
}

// runGraph lowers the pattern to pipelines and runs them on the graph
// executor. Composite recurses through runComposite, whose member
// sub-executors go through run again, so composite members lower
// individually (and follow execHook when it is set).
func (ex *executor) runGraph() error {
	if c, ok := ex.pat.(*Composite); ok {
		return ex.runComposite(c)
	}
	pls, err := ex.lowerPattern(ex.pat)
	if err != nil {
		return err
	}
	return ex.runPipelineSet(pls)
}

// ---------------------------------------------------------------------------
// Task execution with retry

// submit validates kernels, binds each distinct kernel to one unit
// description that all its tasks in the wave share, and submits the
// compact wave under the submission lock, charging the elapsed time to
// the pattern overhead. Submission goes through the binding's shared
// wave batcher, so waves from concurrent executors (one per campaign
// pipeline) coalesce at the unit manager. A streamed wave dispatches its
// units one by one as each one's client-side submission cost elapses,
// instead of all at once after the whole batch's: the event timing of N
// sequential single-unit submissions for one wave's bookkeeping.
// attempts is nil on a first wave: every task's first attempt.
func (ex *executor) submit(tasks []Task, attempts []int, streamed bool) ([]*pilot.ComputeUnit, error) {
	wave := make([]pilot.WaveUnit, len(tasks))
	// Homogeneous waves share one kernel instance (every stress tier and
	// most lowered stages): the memo of the last kernel binds and
	// validates it once, and the map catches kernels that alternate. A
	// nil kernel must never match the memo's zero value — Validate is
	// what turns it into the "core: nil kernel" error instead of a panic
	// in bind.
	var (
		lastK *Kernel
		lastD *pilot.UnitDescription
		bound = map[*Kernel]*pilot.UnitDescription{}
	)
	for i := range tasks {
		k := tasks[i].Kernel
		if lastD == nil || k != lastK {
			d := bound[k]
			if d == nil {
				if err := k.Validate(); err != nil {
					return nil, err
				}
				d = k.bind()
				bound[k] = d
			}
			lastK, lastD = k, d
		}
		wave[i] = pilot.WaveUnit{Desc: lastD, Name: tasks[i].Name}
		if attempts != nil {
			wave[i].Attempt = attempts[i]
		}
	}
	ex.subLock.Acquire(1)
	ex.prof.RecordID(ex.patEnt, ex.evSubStart)
	t0 := ex.v.Now()
	units, err := ex.batch.SubmitWave(ex.rank, wave, streamed)
	dt := ex.v.Now() - t0
	ex.prof.RecordID(ex.patEnt, ex.evSubStop)
	ex.subLock.Release(1)
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	ex.patternOverhead += dt
	ex.mu.Unlock()
	return units, nil
}

// runTasks executes tasks to completion with per-task retry, returning
// the successful unit for each task (in order). Every task must be
// named. streamed selects the streaming submission path for every wave,
// retries included.
func (ex *executor) runTasks(tasks []Task, streamed bool) ([]*pilot.ComputeUnit, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	ex.mu.Lock()
	ex.tasks += len(tasks)
	ex.mu.Unlock()

	// The first wave's unit slice becomes the result: a failed unit's
	// slot is cleared, and a retry that succeeds fills it again.
	var result []*pilot.ComputeUnit
	var attempts []int // made by the first retry; nil means all first attempts
	var pending []int  // indices into tasks; unused on the first wave
	var failures []string
	first := true
	for first || len(pending) > 0 {
		// The first wave is the whole task set: submit it as built, no
		// per-wave rematerialisation (the ~5-10% graph-path overhead on
		// big streamed waves). Only retry waves — a handful of indices —
		// gather into fresh slices.
		batch, att := tasks, attempts
		if !first {
			batch = make([]Task, len(pending))
			att = make([]int, len(pending))
			for i, idx := range pending {
				batch[i] = tasks[idx]
				att[i] = attempts[idx]
			}
		}
		units, err := ex.submit(batch, att, streamed)
		if err != nil {
			return nil, err
		}
		if first {
			result = units
		}
		var next []int
		for i, u := range units {
			idx := i
			if !first {
				idx = pending[i]
			}
			switch u.WaitFinal() {
			case pilot.UnitDone:
				result[idx] = u
			default: // failed
				if first {
					result[idx] = nil
				}
				if attempts == nil {
					attempts = make([]int, len(tasks))
				}
				if attempts[idx] < tasks[idx].retries(ex.rs.cfg.MaxRetries) {
					attempts[idx]++
					ex.mu.Lock()
					ex.retries++
					ex.mu.Unlock()
					next = append(next, idx)
				} else {
					failures = append(failures, fmt.Sprintf("%s: %v", tasks[idx].Name, u.Err()))
				}
			}
		}
		pending = next
		first = false
	}
	if len(failures) > 0 {
		return result, &PatternError{Pattern: ex.name, Failed: failures}
	}
	return result, nil
}

// unitStats computes the wall span and cumulative busy time of a set of
// completed units.
func unitStats(units []*pilot.ComputeUnit) (span, busy time.Duration, n int) {
	var minStart, maxStop time.Duration
	first := true
	for _, u := range units {
		if u == nil {
			continue
		}
		start, stop, ok := u.ExecWindow()
		if !ok {
			continue
		}
		n++
		busy += stop - start
		if first || start < minStart {
			minStart = start
		}
		if first || stop > maxStop {
			maxStop = stop
		}
		first = false
	}
	if !first {
		span = maxStop - minStart
	}
	return span, busy, n
}
