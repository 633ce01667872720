package core

import (
	"cmp"
	"fmt"
	"slices"
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
// into pilot units, submits them through its submission cursor (the
// real toolkit's single client process), enforces synchronisation,
// retries failures, and accumulates the report. Patterns are lowered to
// Pipelines (lower.go) and run on the graph executor (graph.go); the
// seed pattern executor the graph-parity tests compare against lives
// in executor_ref_test.go.
type executor struct {
	rs    *ResourceSet
	pat   Pattern // nil for AppManager pipeline runs
	name  string  // report label: pattern name or pipeline name
	v     vclock.Clock
	batch *pilot.WaveBatcher

	// cur serialises task submission (composite members share their
	// parent's); rank orders this executor's waves within a batcher
	// round: a campaign pipeline's executor takes the pipeline's index.
	cur  *submitCursor
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
	phases          phaseAccumulator

	// Deferred phase buckets (graph executor only), in flush order. See
	// registerDeferredPhase in graph.go.
	deferOrder []string
	deferred   map[string]*deferBucket

	// Checkpoint state (campaign pipeline runs): the first skipStages
	// stages are the resumed prefix; tracked marks each settled barrier
	// for the campaign tracker; hookSnaps holds the settled units of
	// hook stages, which resume replays. mark is the last barrier's
	// counters, its Phases and HookStages kept as lengths of the
	// append-only phase log and hookSnaps (markN); until a live barrier
	// settles it is the resume snapshot, or the name, whole.
	skipStages int
	tracked    bool
	hookSnaps  []StageSnapshot
	mark       PipelineCheckpoint
	markN      [2]int
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
		rs:    rs,
		name:  name,
		v:     rs.cfg.Clock,
		batch: rs.batch,
		cur:   &submitCursor{v: rs.cfg.Clock, perUnit: rs.cfg.Clock.Charged(rs.sess.Cfg.UMSubmitPerUnit)},
		mark:  PipelineCheckpoint{Name: name},
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
	ex.mark = *pc
	ex.skipStages = pc.SettledStages
	ex.tasks = pc.Tasks
	ex.retries = pc.Retries
	ex.patternOverhead = pc.PatternOverhead
	ex.phases.merge("", pc.Phases)
	ex.hookSnaps = append([]StageSnapshot(nil), pc.HookStages...)
}

// hookStageSnapshot is the checkpoint's record of a settled hook stage.
func hookStageSnapshot(seq int, units []*pilot.ComputeUnit) StageSnapshot {
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
	return StageSnapshot{Seq: seq, Units: snaps}
}

// noteSettled marks a settled stage barrier for the campaign tracker;
// seq is the stage's execution index from the pipeline's start
// (including any resumed prefix). It copies nothing but a hook stage's
// units, which a later Resume replays the hook against. Lowered pattern
// runs are never resumed and are not tracked.
func (ex *executor) noteSettled(seq int, hook bool, units []*pilot.ComputeUnit) {
	if !ex.tracked {
		return
	}
	ex.mu.Lock()
	if hook {
		ex.hookSnaps = append(ex.hookSnaps, hookStageSnapshot(seq, units))
	}
	ex.mark = PipelineCheckpoint{Name: ex.name, SettledStages: seq, Tasks: ex.tasks, Retries: ex.retries, PatternOverhead: ex.patternOverhead}
	ex.markN = [2]int{len(ex.phases.log), len(ex.hookSnaps)}
	ex.mu.Unlock()
}

// checkpoint builds the pipeline's snapshot at its last mark.
func (ex *executor) checkpoint() PipelineCheckpoint {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	pc := ex.mark
	if pc.SettledStages > ex.skipStages {
		pc.Phases = foldPhases(ex.phases.log[:ex.markN[0]])
		if n := ex.markN[1]; n > 0 {
			pc.HookStages = append([]StageSnapshot(nil), ex.hookSnaps[:n]...)
		}
	}
	return pc
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

// runGraph lowers the pattern to pipelines and runs them to completion,
// each a record on the clock's callbacks, then flushes deferred phase
// buckets. It returns the first pipeline error; the others still run to
// completion (a failing pipeline never cancels its siblings, matching
// the reference executor). Composite recurses through runComposite,
// whose member sub-executors go through run again, so composite members
// lower individually (and follow execHook when it is set).
func (ex *executor) runGraph() error {
	if c, ok := ex.pat.(*Composite); ok {
		return ex.runComposite(c)
	}
	pls, err := ex.lowerPattern(ex.pat)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	runSet(ex.v, len(pls), func(i int, end func()) {
		ex.startPipeline(pls[i], i, func(r *pipeRun) {
			mu.Lock()
			err = cmp.Or(err, r.err)
			mu.Unlock()
			end()
		})
	})
	ex.flushDeferredPhases()
	return err
}

// ---------------------------------------------------------------------------
// Submission cursor

// submitCursor serialises an executor's wave submissions, the single
// submitting client the toolkit models: a wave's window is
// [max(now, free), + len(wave) × UMSubmitPerUnit], opened by
// submit_start and closed by its dispatch (submit_stop), and the
// pattern overhead is the windows' sum. The cursor grants one
// instant's requests from a zero-delay grant round, in pipeline-index
// order: a pipeline has one request outstanding at a time, so that is
// (pipeline index, stage seq, wave seq) order.
type submitCursor struct {
	v       vclock.Clock
	perUnit time.Duration // the modelled per-unit submission cost
	mu      sync.Mutex
	free    time.Duration // where the last granted window ends
	round   []*pipeRun    // this instant's requests, until the grant round
}

// request queues r's wave for this instant's grant round.
func (c *submitCursor) request(r *pipeRun) {
	c.mu.Lock()
	if c.round = append(c.round, r); len(c.round) == 1 {
		c.v.After(0, c.grantRound)
	}
	c.mu.Unlock()
}

// grantRound grants the instant's requests in order: each wave's
// window opens at max(now, free), and the wave submits at its start.
func (c *submitCursor) grantRound() {
	c.mu.Lock()
	round := c.round
	c.round = nil
	c.mu.Unlock()
	slices.SortStableFunc(round, func(a, b *pipeRun) int { return cmp.Compare(a.idx, b.idx) })
	now := c.v.Now()
	for _, r := range round {
		c.mu.Lock()
		start := max(now, c.free)
		c.free = start + time.Duration(len(r.wave))*c.perUnit
		c.mu.Unlock()
		if start == now {
			r.submit()
		} else {
			c.v.After(start-now, r.submit)
		}
	}
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
