package core

import (
	"fmt"

	"entk/internal/pad"
)

// Pattern lowering: the paper's execution patterns compiled to the graph
// model. Each pattern becomes a set of Pipelines whose stages, hooks,
// and submission modes reproduce the reference executor's coordination
// structure exactly — same bulk waves, same barriers, same rendezvous,
// same phase accounting — so a lowered run's Report is bit-identical to
// the reference path's (gated by TestGraphReportParity). Adaptive
// pattern features (StopWhen, AdaptiveSimulations, AdaptiveStop, nil
// kernels ending a pipeline) all lower onto one mechanism: the
// PostStage hook growing or pruning the graph at runtime.
//
// Kernel callbacks are resolved when the consuming stage is built,
// which the hook chaining below keeps at the same virtual instant as
// the reference executor's resolution point — after the preceding
// barrier, before the wave's submission — so callbacks that close over
// earlier results observe the same state on both paths.

// lowerPattern compiles a unit pattern to pipelines. Composite is
// handled by runComposite (its members lower individually).
func (ex *executor) lowerPattern(p Pattern) ([]*Pipeline, error) {
	switch p := p.(type) {
	case *EnsembleOfPipelines:
		return ex.lowerEoP(p), nil
	case *EnsembleExchange:
		if p.Mode == PairwiseExchange {
			return ex.lowerEEPairwise(p), nil
		}
		return []*Pipeline{lowerEECollective(p)}, nil
	case *SimulationAnalysisLoop:
		return lowerSAL(p)
	default:
		return nil, fmt.Errorf("core: no lowering for pattern %T", p)
	}
}

// ---------------------------------------------------------------------------
// Ensemble of Pipelines

func (ex *executor) lowerEoP(p *EnsembleOfPipelines) []*Pipeline {
	if p.BulkStages {
		return []*Pipeline{lowerEoPBulk(p)}
	}
	if p.Stages == 1 {
		return []*Pipeline{lowerEoPSingleStage(p)}
	}
	// Default mode: one graph pipeline per paper pipeline, executing
	// concurrently; stage stats aggregate per stage index after the
	// whole ensemble completes, so each stage appears once in the
	// report no matter how pipelines interleave.
	for st := 1; st <= p.Stages; st++ {
		ex.registerDeferredPhase("stage."+pad.Int(st, 1), false)
	}
	pls := make([]*Pipeline, 0, p.Pipelines)
	for pl := 1; pl <= p.Pipelines; pl++ {
		pipe := &Pipeline{Name: "pipe" + pad.Int(pl, 4)}
		if st := eopStage(p, pl, 1); st != nil {
			pipe.Stages = []*Stage{st}
		}
		pls = append(pls, pipe)
	}
	return pls
}

// eopStage builds stage st of paper pipeline pl: one task, with a hook
// chaining the next stage. A nil StageKernel ends the pipeline early
// (branching), exactly as in the reference executor.
func eopStage(p *EnsembleOfPipelines, pl, st int) *Stage {
	k := p.StageKernel(st, pl)
	if k == nil {
		return nil
	}
	s := &Stage{
		Name:       "stage." + pad.Int(st, 1),
		Tasks:      []Task{{Name: eopTaskName(pl, st), Kernel: k}},
		deferPhase: true,
		inlineHook: true,
	}
	if st < p.Stages {
		s.PostStage = func(ctl *StageCtl) error {
			if ctl.Err() != nil {
				return nil
			}
			if next := eopStage(p, pl, st+1); next != nil {
				ctl.InsertStages(next)
			}
			return nil
		}
	}
	return s
}

// lowerEoPSingleStage is the streamed fast path: with no inter-stage
// ordering, the whole ensemble is one streamed wave (see
// runEoPSingleStage for the timing argument).
func lowerEoPSingleStage(p *EnsembleOfPipelines) *Pipeline {
	// A nil kernel is branching: that pipeline ends before stage 1.
	tasks := eopWave(p.Pipelines, 1, func(pl int) *Kernel { return p.StageKernel(1, pl) })
	return &Pipeline{Name: "eop", Stages: []*Stage{{
		Name:         "stage.1",
		Tasks:        tasks,
		Streamed:     true,
		statsOnError: true,
	}}}
}

// eopWave builds stage st of every paper pipeline pl in 1..n that
// kernel(pl) gives a kernel, named eopTaskName(pl, st), in pipeline
// order. The names are cut from one string: a wave of a million tasks
// allocates its names once, not a million times.
func eopWave(n, st int, kernel func(pl int) *Kernel) []Task {
	tasks := make([]Task, 0, n)
	names := make([]byte, 0, n*len(eopTaskName(n, st))) // the longest name
	ends := make([]int, 0, n)
	for pl := 1; pl <= n; pl++ {
		if k := kernel(pl); k != nil {
			names = appendEoPTaskName(names, pl, st)
			ends = append(ends, len(names))
			tasks = append(tasks, Task{Kernel: k})
		}
	}
	all, start := string(names), 0
	for i, end := range ends {
		tasks[i].Name = all[start:end]
		start = end
	}
	return tasks
}

// lowerEoPBulk is the phase-batched mode: stage s of every live paper
// pipeline is one bulk wave with a barrier, the next wave built only
// after the barrier (so branching decisions see a settled stage).
func lowerEoPBulk(p *EnsembleOfPipelines) *Pipeline {
	live := make([]bool, p.Pipelines+1)
	for pl := 1; pl <= p.Pipelines; pl++ {
		live[pl] = true
	}
	var mkStage func(st int) *Stage
	mkStage = func(st int) *Stage {
		s := &Stage{Name: "stage." + pad.Int(st, 1), inlineHook: true}
		s.Tasks = eopWave(p.Pipelines, st, func(pl int) *Kernel {
			if !live[pl] {
				return nil
			}
			k := p.StageKernel(st, pl)
			if k == nil {
				live[pl] = false // branching: pipeline ends early
			}
			return k
		})
		if len(s.Tasks) == 0 {
			return nil // every pipeline branched out: pattern ends
		}
		if st < p.Stages {
			s.PostStage = func(ctl *StageCtl) error {
				if ctl.Err() != nil {
					return nil
				}
				if next := mkStage(st + 1); next != nil {
					ctl.InsertStages(next)
				}
				return nil
			}
		}
		return s
	}
	pipe := &Pipeline{Name: "eop"}
	if first := mkStage(1); first != nil {
		pipe.Stages = []*Stage{first}
	}
	return pipe
}

// ---------------------------------------------------------------------------
// Ensemble Exchange (collective mode)

// lowerEECollective chains simulate-exchange cycles through PostStage
// hooks: each cycle's exchange hook runs ExchangeLogic, consults
// StopWhen (adaptive termination lowers to Terminate), and builds the
// next cycle only then — so kernel callbacks observe post-exchange
// state exactly as in the reference executor.
func lowerEECollective(p *EnsembleExchange) *Pipeline {
	var mkSim func(cycle int) *Stage
	mkSim = func(cycle int) *Stage {
		tasks := make([]Task, p.Replicas)
		for r := 1; r <= p.Replicas; r++ {
			tasks[r-1] = Task{Name: eeTaskName(cycle, r), Kernel: p.SimulationKernel(cycle, r)}
		}
		sim := &Stage{Name: "simulation", Tasks: tasks, inlineHook: true}
		sim.PostStage = func(ctl *StageCtl) error {
			if ctl.Err() != nil {
				return nil
			}
			exch := &Stage{
				Name:       "exchange",
				Tasks:      []Task{{Name: fmt.Sprintf("cycle%03d.exchange", cycle), Kernel: p.ExchangeKernel(cycle)}},
				inlineHook: true,
			}
			exch.PostStage = func(ctl2 *StageCtl) error {
				if ctl2.Err() != nil {
					return nil
				}
				if p.ExchangeLogic != nil {
					p.ExchangeLogic(cycle)
				}
				if p.StopWhen != nil && p.StopWhen(cycle) {
					ctl2.Terminate()
					return nil
				}
				if cycle < p.Cycles {
					ctl2.InsertStages(mkSim(cycle + 1))
				}
				return nil
			}
			ctl.InsertStages(exch)
			return nil
		}
		return sim
	}
	return &Pipeline{Name: "ee", Stages: []*Stage{mkSim(1)}}
}

// ---------------------------------------------------------------------------
// Ensemble Exchange (pairwise mode)

// lowerEEPairwise gives each replica its own pipeline; partner pairs
// rendezvous through PostStage hooks on a shared pairRendezvous table
// (the same type the reference executor uses), and the pair's higher
// replica inserts the exchange task into its own pipeline — no global
// barrier anywhere, matching the reference executor's "no obligatory
// global synchronisation" semantics. The simulation hook blocks at the
// rendezvous, so it runs on a process; the exchange hook does not. A
// replica whose simulation dies abandons its current and future
// pairings from the failure hook, so partners skip the exchange instead
// of deadlocking.
func (ex *executor) lowerEEPairwise(p *EnsembleExchange) []*Pipeline {
	partner := p.Partner
	if partner == nil {
		partner = func(cycle, replica int) int {
			return defaultPartner(cycle, replica, p.Replicas)
		}
	}
	ex.registerDeferredPhase("simulation", true)
	ex.registerDeferredPhase("exchange", true)

	rv := newPairRendezvous(ex.v, p, partner)

	var mkSim func(r, cycle int) *Stage
	mkSim = func(r, cycle int) *Stage {
		sim := &Stage{
			Name:       "simulation",
			Tasks:      []Task{{Name: eeTaskName(cycle, r), Kernel: p.SimulationKernel(cycle, r)}},
			deferPhase: true,
		}
		sim.PostStage = func(ctl *StageCtl) error {
			if ctl.Err() != nil {
				// The replica dies here: release current and future
				// partners before the pipeline aborts.
				rv.abandon(r, cycle)
				return nil
			}
			advance := func(c *StageCtl) {
				if cycle < p.Cycles {
					c.InsertStages(mkSim(r, cycle+1))
				}
			}
			e, role := rv.arrive(r, cycle)
			switch role {
			case pairUnpaired:
				advance(ctl) // unpaired this cycle (or partner died)
				return nil
			case pairLo:
				// The lower replica waits for its partner to run the
				// exchange — no other replicas are involved.
				e.done.Wait()
				advance(ctl)
				return nil
			}
			// The higher replica waits for its partner's arrival, then
			// executes the pairwise exchange task.
			if !rv.meet(e) {
				advance(ctl) // the partner died before arriving
				return nil
			}
			exch := &Stage{
				Name: "exchange",
				Tasks: []Task{{
					Name:   fmt.Sprintf("cycle%03d.exchange.%05d-%05d", cycle, e.lo, e.hi),
					Kernel: p.ExchangeKernel(cycle),
				}},
				deferPhase: true,
				inlineHook: true,
			}
			exch.PostStage = func(ctl2 *StageCtl) error {
				if ctl2.Err() != nil {
					// Release the waiting partner and abandon this
					// replica's future pairings even on failure.
					e.done.Fire()
					rv.abandon(r, cycle+1)
					return nil
				}
				if p.PairLogic != nil {
					p.PairLogic(cycle, e.lo, e.hi)
				}
				e.done.Fire()
				advance(ctl2)
				return nil
			}
			ctl.InsertStages(exch)
			return nil
		}
		return sim
	}

	pls := make([]*Pipeline, 0, p.Replicas)
	for r := 1; r <= p.Replicas; r++ {
		pls = append(pls, &Pipeline{
			Name:   "replica" + pad.Int(r, 5),
			Stages: []*Stage{mkSim(r, 1)},
		})
	}
	return pls
}

// ---------------------------------------------------------------------------
// Simulation Analysis Loop

func salSimName(iter, i int) string {
	return "iter" + pad.Int(iter, 3) + ".sim" + pad.Int(i, 5)
}

func salAnaName(iter, i int) string {
	return "iter" + pad.Int(iter, 3) + ".ana" + pad.Int(i, 5)
}

// lowerSAL chains global-barrier iterations through PostStage hooks:
// each analysis hook consults AdaptiveStop, and the next iteration's
// simulation width (AdaptiveSimulations) is resolved only then — so
// hooks that close over analysis state observe the same state as on
// the reference path, and width validation errors surface at the same
// point of the run.
func lowerSAL(p *SimulationAnalysisLoop) ([]*Pipeline, error) {
	appendPost := func(ctl *StageCtl) {
		if p.PostLoop == nil {
			return
		}
		if k := p.PostLoop(); k != nil {
			ctl.InsertStages(&Stage{Name: "post_loop", Tasks: []Task{{Name: "post_loop", Kernel: k}}})
		}
	}
	var mkIter func(iter int) ([]*Stage, error)
	mkIter = func(iter int) ([]*Stage, error) {
		width := p.Simulations
		if p.AdaptiveSimulations != nil {
			width = p.AdaptiveSimulations(iter)
			if err := validateAdaptiveWidth(width, iter); err != nil {
				return nil, err
			}
		}
		sims := make([]Task, width)
		for i := 1; i <= width; i++ {
			sims[i-1] = Task{Name: salSimName(iter, i), Kernel: p.SimulationKernel(iter, i)}
		}
		anas := make([]Task, p.Analyses)
		for i := 1; i <= p.Analyses; i++ {
			anas[i-1] = Task{Name: salAnaName(iter, i), Kernel: p.AnalysisKernel(iter, i)}
		}
		ana := &Stage{Name: "analysis", Tasks: anas, inlineHook: true}
		ana.PostStage = func(ctl *StageCtl) error {
			if ctl.Err() != nil {
				return nil
			}
			if p.AdaptiveStop != nil && p.AdaptiveStop(iter) {
				appendPost(ctl) // converged: the loop ends, post_loop still runs
				return nil
			}
			if iter < p.Iterations {
				next, err := mkIter(iter + 1)
				if err != nil {
					return err
				}
				ctl.InsertStages(next...)
				return nil
			}
			appendPost(ctl)
			return nil
		}
		return []*Stage{{Name: "simulation", Tasks: sims}, ana}, nil
	}

	pipe := &Pipeline{Name: "sal"}
	if p.PreLoop != nil {
		// The pre-loop stage runs first; iteration 1 is built at its
		// barrier, so a first-iteration adaptive-width error surfaces
		// after pre_loop ran, as on the reference path. A nil PreLoop
		// kernel leaves the stage empty (it still chains iteration 1).
		pre := &Stage{Name: "pre_loop", inlineHook: true}
		if k := p.PreLoop(); k != nil {
			pre.Tasks = []Task{{Name: "pre_loop", Kernel: k}}
		}
		pre.PostStage = func(ctl *StageCtl) error {
			if ctl.Err() != nil {
				return nil
			}
			first, err := mkIter(1)
			if err != nil {
				return err
			}
			ctl.InsertStages(first...)
			return nil
		}
		pipe.Stages = []*Stage{pre}
		return []*Pipeline{pipe}, nil
	}
	first, err := mkIter(1)
	if err != nil {
		return nil, err
	}
	pipe.Stages = first
	return []*Pipeline{pipe}, nil
}
