package core

import (
	"fmt"
	"sync"
	"testing"

	"entk/internal/pilot"
	"entk/internal/vclock"
)

// This file is the seed pattern executor: one plugin per execution
// pattern, submitting tasks straight from the pattern's structure
// instead of lowering it to pipelines. The product runs every pattern
// on the graph executor (graph.go); this implementation is kept only as
// the reference the graph-parity tests (graph_parity_test.go) compare it
// with, reached through execHook.

// withRefExecutor runs fn with every executor run — composite members
// included — routed to the seed pattern executor. It fails the test if
// no run took the hook, so a comparison can never pass by running the
// graph executor twice.
func withRefExecutor(t testing.TB, fn func()) {
	t.Helper()
	ran := false
	execHook = func(ex *executor) error {
		ran = true
		return ex.runRef()
	}
	defer func() { execHook = nil }()
	fn()
	if !ran {
		t.Fatal("no executor run took execHook: the seed pattern executor never ran")
	}
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

// runTasks executes tasks to completion with per-task retry, as one
// stage of a pipeline record on a scratch executor that shares ex's
// submission cursor and rank, and returns the successful unit for each
// task (in order; a task that failed for good leaves a nil slot). It
// parks the calling process until the stage settles: the blocking call
// the seed executor is written against. The stage's counters are
// folded into ex; its phase stats are dropped, as the seed executor
// records its own.
func (ex *executor) runTasks(tasks []Task, streamed bool) ([]*pilot.ComputeUnit, error) {
	sub := newNamedExecutor(ex.rs, ex.name)
	sub.cur, sub.rank = ex.cur, ex.rank
	done := vclock.NewEvent(ex.v, "seed stage")
	var units []*pilot.ComputeUnit
	var err error
	sub.startPipeline(&Pipeline{Stages: []*Stage{{Name: "seed", Tasks: tasks, Streamed: streamed}}}, 0, func(r *pipeRun) {
		units, err = r.ctl.units, r.err
		done.Fire()
	})
	done.Wait()
	ex.mu.Lock()
	ex.tasks += sub.tasks
	ex.retries += sub.retries
	ex.patternOverhead += sub.patternOverhead
	ex.mu.Unlock()
	return units, err
}

// runPhase executes specs as one occurrence of the named phase and
// records its stats.
func (ex *executor) runPhase(name string, specs []Task) ([]*pilot.ComputeUnit, error) {
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
				units, err := ex.runTasks([]Task{{Name: name, Kernel: k}}, false)
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
	specs := make([]Task, 0, p.Pipelines)
	for pl := 1; pl <= p.Pipelines; pl++ {
		k := p.StageKernel(1, pl)
		if k == nil {
			continue // branching: this pipeline ends before stage 1
		}
		specs = append(specs, Task{Name: eopTaskName(pl, 1), Kernel: k})
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
		specs := make([]Task, 0, p.Pipelines)
		for pl := 1; pl <= p.Pipelines; pl++ {
			if !live[pl] {
				continue
			}
			k := p.StageKernel(st, pl)
			if k == nil {
				live[pl] = false // branching: pipeline ends early
				continue
			}
			specs = append(specs, Task{Name: eopTaskName(pl, st), Kernel: k})
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
		specs := make([]Task, p.Replicas)
		for r := 1; r <= p.Replicas; r++ {
			specs[r-1] = Task{
				Name:   eeTaskName(cycle, r),
				Kernel: p.SimulationKernel(cycle, r),
			}
		}
		if _, err := ex.runPhase("simulation", specs); err != nil {
			return err
		}
		exSpec := Task{
			Name:   fmt.Sprintf("cycle%03d.exchange", cycle),
			Kernel: p.ExchangeKernel(cycle),
		}
		if _, err := ex.runPhase("exchange", []Task{exSpec}); err != nil {
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
				units, err := ex.runTasks([]Task{{Name: name, Kernel: p.SimulationKernel(cycle, r)}}, false)
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
				case pairLo:
					// The lower replica waits for its partner to run the
					// exchange — no other replicas are involved.
					e.done.Wait()
					continue
				}
				// The higher replica waits for its partner, then
				// executes the pairwise exchange task.
				if !rv.meet(e) {
					continue // the partner failed before arriving
				}
				exName := fmt.Sprintf("cycle%03d.exchange.%05d-%05d", cycle, e.lo, e.hi)
				exu, err := ex.runTasks([]Task{{Name: exName, Kernel: p.ExchangeKernel(cycle)}}, false)
				if err != nil {
					fail(err)
					e.done.Fire()
					rv.abandon(r, cycle+1)
					return
				}
				mu.Lock()
				exUnits = append(exUnits, exu...)
				mu.Unlock()
				if p.PairLogic != nil {
					p.PairLogic(cycle, e.lo, e.hi)
				}
				e.done.Fire()
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
			if _, err := ex.runPhase("pre_loop", []Task{{Name: "pre_loop", Kernel: k}}); err != nil {
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
		sims := make([]Task, width)
		for i := 1; i <= width; i++ {
			sims[i-1] = Task{
				Name:   fmt.Sprintf("iter%03d.sim%05d", iter, i),
				Kernel: p.SimulationKernel(iter, i),
			}
		}
		if _, err := ex.runPhase("simulation", sims); err != nil {
			return err
		}
		anas := make([]Task, p.Analyses)
		for i := 1; i <= p.Analyses; i++ {
			anas[i-1] = Task{
				Name:   fmt.Sprintf("iter%03d.ana%05d", iter, i),
				Kernel: p.AnalysisKernel(iter, i),
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
			if _, err := ex.runPhase("post_loop", []Task{{Name: "post_loop", Kernel: k}}); err != nil {
				return err
			}
		}
	}
	return nil
}
