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

// taskSpec pairs a task name with its kernel.
type taskSpec struct {
	name string
	k    *Kernel
}

// eopTaskName formats "pipeNNNN.stageMM" (pad: task naming sits on the
// per-unit hot path).
func eopTaskName(pipe, stage int) string {
	return "pipe" + pad.Int(pipe, 4) + ".stage" + pad.Int(stage, 2)
}

// eeTaskName formats "cycleNNN.replicaNNNNN".
func eeTaskName(cycle, replica int) string {
	return "cycle" + pad.Int(cycle, 3) + ".replica" + pad.Int(replica, 5)
}

// executor is the execution engine's per-run state: it binds kernels
// into pilot units, submits them (serialized, like the real toolkit's
// client process), enforces synchronisation, retries failures, and
// accumulates the report. Two implementations share it: the graph
// executor (graph.go, the default — patterns are lowered to Pipelines,
// see lower.go) and the seed pattern executor kept below as the
// ExecRef reference path.
type executor struct {
	rs    *ResourceSet
	pat   Pattern // nil for AppManager pipeline runs
	name  string  // report label: pattern name or pipeline name
	v     vclock.Clock
	batch *pilot.WaveBatcher

	// subLock serializes task submission; the time spent holding it is
	// the pattern overhead.
	subLock *vclock.Semaphore

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
		snaps = append(snaps, UnitSnapshot{
			Name:   u.Desc.Name,
			Kernel: u.Desc.Kernel,
			Params: u.Desc.Params,
			Cores:  u.Desc.Cores,
			MPI:    u.Desc.MPI,
			Tags:   u.Desc.Tags,
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

// run executes the pattern on the configured path: the graph executor
// (default) or the seed reference executor (Config.Exec = ExecRef).
func (ex *executor) run() error {
	if ex.rs.cfg.Exec == ExecRef {
		return ex.runRef()
	}
	return ex.runGraph()
}

// runRef dispatches to the seed pattern-specific plugin — the reference
// execution path the graph-parity tests compare against.
func (ex *executor) runRef() error {
	switch p := ex.pat.(type) {
	case *EnsembleOfPipelines:
		return ex.runEoP(p)
	case *EnsembleExchange:
		if p.Mode == PairwiseExchange {
			return ex.runEEPairwise(p)
		}
		return ex.runEECollective(p)
	case *SimulationAnalysisLoop:
		return ex.runSAL(p)
	case *Composite:
		return ex.runComposite(p)
	default:
		return fmt.Errorf("core: no execution plugin for pattern %T", ex.pat)
	}
}

// runGraph lowers the pattern to pipelines and runs them on the graph
// executor. Composite recurses through runComposite (whose member
// sub-executors dispatch per the configured path again), so composite
// members lower individually and the accounting merge is shared with
// the reference path.
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

// submit validates kernels, binds them to unit descriptions, and
// submits them under the submission lock, charging the elapsed time to
// the pattern overhead. Submission goes through the binding's shared
// wave batcher, so waves from concurrent executors (one per campaign
// pipeline) coalesce at the unit manager. A streamed wave dispatches its
// units one by one as each one's client-side submission cost elapses,
// instead of all at once after the whole batch's: the event timing of N
// sequential single-unit submissions for one wave's bookkeeping.
func (ex *executor) submit(specs []taskSpec, attempts []int, streamed bool) ([]*pilot.ComputeUnit, error) {
	descs := make([]pilot.UnitDescription, len(specs))
	// Homogeneous waves share one kernel instance (every stress tier and
	// most lowered stages); validate each distinct kernel once. A nil
	// kernel must never match the memo's zero value — Validate is what
	// turns it into the "core: nil kernel" error instead of a panic in
	// bind.
	var lastOK *Kernel
	for i, s := range specs {
		if s.k == nil || s.k != lastOK {
			if err := s.k.Validate(); err != nil {
				return nil, err
			}
			lastOK = s.k
		}
		descs[i] = s.k.bind(s.name, attempts[i])
	}
	ex.subLock.Acquire(1)
	ex.prof.RecordID(ex.patEnt, ex.evSubStart)
	t0 := ex.v.Now()
	var units []*pilot.ComputeUnit
	var err error
	if streamed {
		units, err = ex.batch.SubmitStreamed(descs)
	} else {
		units, err = ex.batch.Submit(descs)
	}
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

// runTasks executes specs to completion with per-task retry, returning
// the successful unit for each spec (in order). streamed selects the
// streaming submission path for every wave, retries included.
func (ex *executor) runTasks(specs []taskSpec, streamed bool) ([]*pilot.ComputeUnit, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	ex.mu.Lock()
	ex.tasks += len(specs)
	ex.mu.Unlock()

	result := make([]*pilot.ComputeUnit, len(specs))
	attempts := make([]int, len(specs))
	var pending []int // indices into specs; unused on the first wave
	var failures []string
	first := true
	for first || len(pending) > 0 {
		// The first wave is the whole spec set: submit it as built, no
		// per-wave rematerialisation (the ~5-10% graph-path overhead on
		// big streamed waves). Only retry waves — a handful of indices —
		// gather into fresh slices.
		batch, att := specs, attempts
		if !first {
			batch = make([]taskSpec, len(pending))
			att = make([]int, len(pending))
			for i, idx := range pending {
				batch[i] = specs[idx]
				att[i] = attempts[idx]
			}
		}
		units, err := ex.submit(batch, att, streamed)
		if err != nil {
			return nil, err
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
			case pilot.UnitCanceled:
				failures = append(failures, fmt.Sprintf("%s: canceled", specs[idx].name))
			default: // failed
				budget := specs[idx].k.retries(ex.rs.cfg.MaxRetries)
				if attempts[idx] < budget {
					attempts[idx]++
					ex.mu.Lock()
					ex.retries++
					ex.mu.Unlock()
					next = append(next, idx)
				} else {
					failures = append(failures, fmt.Sprintf("%s: %v", specs[idx].name, u.Err()))
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

// runPhase executes specs as one occurrence of the named phase and
// records its stats.
func (ex *executor) runPhase(name string, specs []taskSpec) ([]*pilot.ComputeUnit, error) {
	units, err := ex.runTasks(specs, false)
	if err != nil {
		return units, err
	}
	span, busy, n := unitStats(units)
	ex.mu.Lock()
	ex.phases.add(name, span, busy, n)
	ex.mu.Unlock()
	return units, nil
}

// ---------------------------------------------------------------------------
// Ensemble of Pipelines plugin

func (ex *executor) runEoP(p *EnsembleOfPipelines) error {
	if p.BulkStages {
		return ex.runEoPBulk(p)
	}
	if p.Stages == 1 {
		return ex.runEoPSingleStage(p)
	}
	// Pipelines execute independently; stages within a pipeline are
	// sequential. Stage statistics are aggregated after the fact so that
	// each stage appears once in the report.
	stageUnits := make([][]*pilot.ComputeUnit, p.Stages)
	var mu sync.Mutex
	var firstErr error
	wg := vclock.NewWaitGroup(ex.v, "eop pipelines")
	for pl := 1; pl <= p.Pipelines; pl++ {
		pl := pl
		wg.Add(1)
		ex.v.Go(func() {
			defer wg.Done()
			for st := 1; st <= p.Stages; st++ {
				k := p.StageKernel(st, pl)
				if k == nil {
					// A nil kernel ends this pipeline early (branching).
					return
				}
				name := eopTaskName(pl, st)
				units, err := ex.runTasks([]taskSpec{{name, k}}, false)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				stageUnits[st-1] = append(stageUnits[st-1], units...)
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	for st := 1; st <= p.Stages; st++ {
		units := stageUnits[st-1]
		if len(units) == 0 {
			continue
		}
		span, busy, n := unitStats(units)
		ex.mu.Lock()
		ex.phases.add(fmt.Sprintf("stage.%d", st), span, busy, n)
		ex.mu.Unlock()
	}
	return firstErr
}

// runEoPSingleStage executes a one-stage ensemble without per-pipeline
// goroutines: with no inter-stage ordering to enforce, the tasks are
// independent and can be submitted as one stream. The streaming path
// dispatches unit i after i+1 client-side submission costs, exactly when
// the default mode's i-th serialized single-unit submission would have,
// so the simulated timeline of a clean run is unchanged — only the
// client bookkeeping (goroutines, per-call locking) is saved. One
// intended semantic difference: failed units are resubmitted per wave
// (after the whole batch is waited on), like every other multi-task
// phase (EE, SAL), instead of the seed's per-pipeline immediate retry.
// This is the hot path of the unit-throughput benchmark and the EoP
// stress tier.
func (ex *executor) runEoPSingleStage(p *EnsembleOfPipelines) error {
	specs := make([]taskSpec, 0, p.Pipelines)
	for pl := 1; pl <= p.Pipelines; pl++ {
		k := p.StageKernel(1, pl)
		if k == nil {
			continue // branching: this pipeline ends before stage 1
		}
		specs = append(specs, taskSpec{eopTaskName(pl, 1), k})
	}
	if len(specs) == 0 {
		return nil
	}
	units, err := ex.runTasks(specs, true)
	if len(units) > 0 {
		span, busy, n := unitStats(units)
		ex.mu.Lock()
		ex.phases.add("stage.1", span, busy, n)
		ex.mu.Unlock()
	}
	return err
}

// runEoPBulk executes the ensemble with a barrier between stages: stage s
// of every still-live pipeline is one bulk submission (one tracked call),
// the way EnTK submits a stage's CU descriptions with a single
// submit_units. Selected by EnsembleOfPipelines.BulkStages.
func (ex *executor) runEoPBulk(p *EnsembleOfPipelines) error {
	live := make([]bool, p.Pipelines+1)
	for pl := 1; pl <= p.Pipelines; pl++ {
		live[pl] = true
	}
	for st := 1; st <= p.Stages; st++ {
		specs := make([]taskSpec, 0, p.Pipelines)
		for pl := 1; pl <= p.Pipelines; pl++ {
			if !live[pl] {
				continue
			}
			k := p.StageKernel(st, pl)
			if k == nil {
				live[pl] = false // branching: pipeline ends early
				continue
			}
			specs = append(specs, taskSpec{eopTaskName(pl, st), k})
		}
		if len(specs) == 0 {
			return nil
		}
		if _, err := ex.runPhase(fmt.Sprintf("stage.%d", st), specs); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ensemble Exchange plugin (collective mode)

func (ex *executor) runEECollective(p *EnsembleExchange) error {
	for cycle := 1; cycle <= p.Cycles; cycle++ {
		specs := make([]taskSpec, p.Replicas)
		for r := 1; r <= p.Replicas; r++ {
			specs[r-1] = taskSpec{
				name: eeTaskName(cycle, r),
				k:    p.SimulationKernel(cycle, r),
			}
		}
		if _, err := ex.runPhase("simulation", specs); err != nil {
			return err
		}
		exSpec := taskSpec{
			name: fmt.Sprintf("cycle%03d.exchange", cycle),
			k:    p.ExchangeKernel(cycle),
		}
		if _, err := ex.runPhase("exchange", []taskSpec{exSpec}); err != nil {
			return err
		}
		if p.ExchangeLogic != nil {
			p.ExchangeLogic(cycle)
		}
		if p.StopWhen != nil && p.StopWhen(cycle) {
			break
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ensemble Exchange plugin (pairwise mode)

func (ex *executor) runEEPairwise(p *EnsembleExchange) error {
	partner := p.Partner
	if partner == nil {
		partner = func(cycle, replica int) int {
			return defaultPartner(cycle, replica, p.Replicas)
		}
	}

	rv := newPairRendezvous(ex.v, p, partner)
	var mu sync.Mutex
	var simUnits, exUnits []*pilot.ComputeUnit
	var firstErr error

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	wg := vclock.NewWaitGroup(ex.v, "ee replicas")
	for r := 1; r <= p.Replicas; r++ {
		r := r
		wg.Add(1)
		ex.v.Go(func() {
			defer wg.Done()
			for cycle := 1; cycle <= p.Cycles; cycle++ {
				name := eeTaskName(cycle, r)
				units, err := ex.runTasks([]taskSpec{{name, p.SimulationKernel(cycle, r)}}, false)
				if err != nil {
					fail(err)
					// Release current and future partners before the
					// replica disappears, or they would deadlock at
					// their rendezvous.
					rv.abandon(r, cycle)
					return
				}
				mu.Lock()
				simUnits = append(simUnits, units...)
				mu.Unlock()

				e, role := rv.arrive(r, cycle)
				switch role {
				case pairUnpaired:
					continue // unpaired this cycle (or partner failed)
				case pairFirst:
					// First arriver waits for its partner to run the
					// exchange — no other replicas are involved.
					e.ev.Wait()
					continue
				}
				// Second arriver executes the pairwise exchange task.
				exName := fmt.Sprintf("cycle%03d.exchange.%05d-%05d", cycle, e.lo, e.hi)
				exu, err := ex.runTasks([]taskSpec{{exName, p.ExchangeKernel(cycle)}}, false)
				if err != nil {
					fail(err)
					e.ev.Fire()
					rv.abandon(r, cycle+1)
					return
				}
				mu.Lock()
				exUnits = append(exUnits, exu...)
				mu.Unlock()
				if p.PairLogic != nil {
					p.PairLogic(cycle, e.lo, e.hi)
				}
				e.ev.Fire()
			}
		})
	}
	wg.Wait()

	span, busy, n := unitStats(simUnits)
	ex.mu.Lock()
	ex.phases.add("simulation", span, busy, n)
	ex.mu.Unlock()
	span, busy, n = unitStats(exUnits)
	ex.mu.Lock()
	ex.phases.add("exchange", span, busy, n)
	ex.mu.Unlock()
	return firstErr
}

// ---------------------------------------------------------------------------
// Simulation Analysis Loop plugin

func (ex *executor) runSAL(p *SimulationAnalysisLoop) error {
	if p.PreLoop != nil {
		if k := p.PreLoop(); k != nil {
			if _, err := ex.runPhase("pre_loop", []taskSpec{{"pre_loop", k}}); err != nil {
				return err
			}
		}
	}
	for iter := 1; iter <= p.Iterations; iter++ {
		width := p.Simulations
		if p.AdaptiveSimulations != nil {
			width = p.AdaptiveSimulations(iter)
			if err := validateAdaptiveWidth(width, iter); err != nil {
				return err
			}
		}
		sims := make([]taskSpec, width)
		for i := 1; i <= width; i++ {
			sims[i-1] = taskSpec{
				name: fmt.Sprintf("iter%03d.sim%05d", iter, i),
				k:    p.SimulationKernel(iter, i),
			}
		}
		if _, err := ex.runPhase("simulation", sims); err != nil {
			return err
		}
		anas := make([]taskSpec, p.Analyses)
		for i := 1; i <= p.Analyses; i++ {
			anas[i-1] = taskSpec{
				name: fmt.Sprintf("iter%03d.ana%05d", iter, i),
				k:    p.AnalysisKernel(iter, i),
			}
		}
		if _, err := ex.runPhase("analysis", anas); err != nil {
			return err
		}
		if p.AdaptiveStop != nil && p.AdaptiveStop(iter) {
			break
		}
	}
	if p.PostLoop != nil {
		if k := p.PostLoop(); k != nil {
			if _, err := ex.runPhase("post_loop", []taskSpec{{"post_loop", k}}); err != nil {
				return err
			}
		}
	}
	return nil
}
