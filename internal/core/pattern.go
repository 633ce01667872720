package core

import (
	"fmt"
	"sync"

	"entk/internal/vclock"
)

// Pattern is an execution pattern: a parametrised template capturing the
// coordination and synchronisation of an ensemble (Section III-B1). The
// three unit patterns below cover the application scenarios the paper
// identifies; higher-order patterns compose them by running several
// patterns in sequence against one resource handle. A pattern's
// callbacks (kernel constructors, exchange logic, stop and adaptivity
// predicates) run at stage barriers on the clock's callback path, so
// they must not block on the clock.
type Pattern interface {
	// PatternName identifies the pattern in reports.
	PatternName() string
	// TaskCount returns the static task plan — how many tasks the
	// pattern will generate if no adaptive hook fires. Adaptive runs
	// may execute more or fewer; Report.Tasks carries the actual
	// executed count (and Report.PlannedTasks echoes this plan).
	TaskCount() int
	// validate checks the parametrisation before execution.
	validate() error
}

// ---------------------------------------------------------------------------
// Ensemble of Pipelines

// EnsembleOfPipelines runs N independent pipelines of M ordered stages
// (Fig. 2a). Stages within a pipeline are sequential; pipelines never
// synchronise with each other.
type EnsembleOfPipelines struct {
	// Pipelines is the ensemble width N.
	Pipelines int
	// Stages is the pipeline depth M.
	Stages int
	// StageKernel returns the kernel for the given stage of the given
	// pipeline (both 1-based, matching the paper's figures).
	StageKernel func(stage, pipeline int) *Kernel
	// BulkStages selects phase-batched execution: stage s of every
	// pipeline is submitted to the runtime in one tracked call and a
	// barrier separates stages. This trades pipeline-level asynchrony
	// (normally pipeline i may run stage 2 while pipeline j is still in
	// stage 1) for a single bulk submission per stage, which is how the
	// stress tier drives 10k+ pipelines through the scheduler at once. A
	// pipeline whose StageKernel returns nil at stage s takes no further
	// part in later stages, matching the default mode's early exit.
	BulkStages bool
}

// PatternName implements Pattern.
func (p *EnsembleOfPipelines) PatternName() string { return "ensemble-of-pipelines" }

// TaskCount implements Pattern.
func (p *EnsembleOfPipelines) TaskCount() int { return p.Pipelines * p.Stages }

func (p *EnsembleOfPipelines) validate() error {
	switch {
	case p.Pipelines < 1:
		return fmt.Errorf("core: ensemble of pipelines with %d pipelines", p.Pipelines)
	case p.Stages < 1:
		return fmt.Errorf("core: ensemble of pipelines with %d stages", p.Stages)
	case p.StageKernel == nil:
		return fmt.Errorf("core: ensemble of pipelines has no StageKernel")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Ensemble Exchange

// ExchangeMode selects how EE members interact in the exchange stage.
type ExchangeMode int

const (
	// CollectiveExchange runs one serial exchange task over all replicas
	// after each cycle's simulations — the configuration measured in the
	// paper's Figures 5 and 6.
	CollectiveExchange ExchangeMode = iota
	// PairwiseExchange synchronises only partner pairs, with no global
	// barrier across the ensemble — the paper's "no obligatory global
	// synchronisation" semantics (Section III-D2).
	PairwiseExchange
)

func (m ExchangeMode) String() string {
	if m == PairwiseExchange {
		return "pairwise"
	}
	return "collective"
}

// EnsembleExchange runs interacting ensemble members that alternate
// between a simulation state and an exchange state (Fig. 2b), e.g.
// replica-exchange molecular dynamics.
type EnsembleExchange struct {
	// Replicas is the ensemble size.
	Replicas int
	// Cycles is the number of simulate-exchange rounds.
	Cycles int
	// SimulationKernel returns the kernel for one replica's simulation in
	// one cycle (both 1-based).
	SimulationKernel func(cycle, replica int) *Kernel
	// ExchangeKernel returns the exchange-stage kernel for a cycle. In
	// CollectiveExchange mode it runs once over all replicas; in
	// PairwiseExchange mode it runs once per partner pair (the kernel's
	// params should then describe a two-replica exchange).
	ExchangeKernel func(cycle int) *Kernel
	// ExchangeLogic, if non-nil, runs in-framework after each cycle's
	// exchange completes — the hook where applications apply Metropolis
	// swaps to their replica state (see internal/md).
	ExchangeLogic func(cycle int)
	// PairLogic, if non-nil, runs in-framework after each pairwise
	// exchange task completes (PairwiseExchange mode only).
	PairLogic func(cycle, replicaLo, replicaHi int)
	// StopWhen, if non-nil, is consulted after each cycle's exchange (and
	// ExchangeLogic); returning true ends the ensemble early — adaptive
	// termination (Section V). CollectiveExchange mode only.
	StopWhen func(cycle int) bool
	// Mode selects collective or pairwise exchange; zero value is
	// collective.
	Mode ExchangeMode
	// Partner returns the partner replica for pairwise exchange (1-based;
	// return 0 for "sit this cycle out"). Nil selects the standard REMD
	// neighbour pairing alternating by cycle parity.
	Partner func(cycle, replica int) int
}

// PatternName implements Pattern.
func (p *EnsembleExchange) PatternName() string { return "ensemble-exchange" }

// TaskCount implements Pattern.
func (p *EnsembleExchange) TaskCount() int {
	switch p.Mode {
	case PairwiseExchange:
		// Simulations plus up to one exchange task per pair per cycle.
		return p.Replicas*p.Cycles + p.Cycles*(p.Replicas/2)
	default:
		return p.Replicas*p.Cycles + p.Cycles
	}
}

func (p *EnsembleExchange) validate() error {
	switch {
	case p.Replicas < 2:
		return fmt.Errorf("core: ensemble exchange with %d replicas", p.Replicas)
	case p.Cycles < 1:
		return fmt.Errorf("core: ensemble exchange with %d cycles", p.Cycles)
	case p.SimulationKernel == nil:
		return fmt.Errorf("core: ensemble exchange has no SimulationKernel")
	case p.ExchangeKernel == nil:
		return fmt.Errorf("core: ensemble exchange has no ExchangeKernel")
	case p.StopWhen != nil && p.Mode == PairwiseExchange:
		return fmt.Errorf("core: StopWhen requires CollectiveExchange mode")
	}
	return nil
}

// pairRendezvous coordinates pairwise-EE partners, shared by the
// reference executor and the graph lowering so both paths fail the same
// way. Roles follow the replica index, not arrival order: the pair's
// lower replica fires its entry's "arrived" event and waits on "done";
// the higher replica waits for "arrived", then runs the exchange task
// and fires "done". Which replica owns the exchange is therefore fixed
// by the pairing, never by which simulation's barrier a process reached
// first at a shared instant. A replica that dies (retries exhausted)
// abandons its current and future pairings, firing both events, so
// partners proceed without an exchange instead of deadlocking at a
// rendezvous nobody will ever complete.
type pairRendezvous struct {
	v       vclock.Clock
	p       *EnsembleExchange
	partner func(cycle, replica int) int

	mu      sync.Mutex
	entries map[pairKey]*pairEntry
}

type pairKey struct{ cycle, lo int }

type pairEntry struct {
	arrived, done *vclock.Event
	lo, hi        int
	dead          bool // a member died before the rendezvous: no exchange
}

// pairRole is a replica's role at one cycle's rendezvous.
type pairRole int

const (
	// pairUnpaired: sit this cycle out (no partner, or partner died).
	pairUnpaired pairRole = iota
	// pairLo: fire "arrived", then wait on "done" for the exchange.
	pairLo
	// pairHi: wait on "arrived", run the exchange task, fire "done".
	pairHi
)

func newPairRendezvous(v vclock.Clock, p *EnsembleExchange, partner func(cycle, replica int) int) *pairRendezvous {
	return &pairRendezvous{v: v, p: p, partner: partner, entries: make(map[pairKey]*pairEntry)}
}

// pairFor resolves replica r's cycle pairing, ok=false when unpaired.
func (rv *pairRendezvous) pairFor(r, cycle int) (lo, hi int, ok bool) {
	q := rv.partner(cycle, r)
	if q < 1 || q > rv.p.Replicas || q == r {
		return 0, 0, false
	}
	if q < r {
		return q, r, true
	}
	return r, q, true
}

// entry returns the pair's rendezvous entry, made on first use. The
// caller holds mu.
func (rv *pairRendezvous) entry(cycle, lo, hi int) *pairEntry {
	e := rv.entries[pairKey{cycle, lo}]
	if e == nil {
		name := fmt.Sprintf("ee pair c%d (%d,%d)", cycle, lo, hi)
		e = &pairEntry{arrived: vclock.NewEvent(rv.v, name+" arrived"), done: vclock.NewEvent(rv.v, name+" done"), lo: lo, hi: hi}
		rv.entries[pairKey{cycle, lo}] = e
	}
	return e
}

// arrive registers replica r at its cycle rendezvous and returns its
// entry and role. The lower replica's arrival fires "arrived".
func (rv *pairRendezvous) arrive(r, cycle int) (*pairEntry, pairRole) {
	lo, hi, ok := rv.pairFor(r, cycle)
	if !ok {
		return nil, pairUnpaired
	}
	rv.mu.Lock()
	e := rv.entry(cycle, lo, hi)
	dead := e.dead
	rv.mu.Unlock()
	switch {
	case dead:
		return e, pairUnpaired
	case r == lo:
		e.arrived.Fire()
		return e, pairLo
	default:
		return e, pairHi
	}
}

// meet parks the higher replica until its partner arrived, and reports
// whether the exchange runs: false when the partner died instead.
func (rv *pairRendezvous) meet(e *pairEntry) bool {
	e.arrived.Wait()
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return !e.dead
}

// abandon poisons replica r's pairings from cycle `from` onward: a
// partner already waiting is woken, a partner yet to arrive will skip
// the exchange (pairUnpaired). Idempotent; safe when both members of a
// pair die.
func (rv *pairRendezvous) abandon(r, from int) {
	for cycle := from; cycle <= rv.p.Cycles; cycle++ {
		lo, hi, ok := rv.pairFor(r, cycle)
		if !ok {
			continue
		}
		rv.mu.Lock()
		e := rv.entry(cycle, lo, hi)
		e.dead = true
		rv.mu.Unlock()
		// Harmless no-ops where the rendezvous already fired them.
		e.arrived.Fire()
		e.done.Fire()
	}
}

// defaultPartner implements neighbour pairing with alternating parity:
// odd cycles pair (1,2),(3,4),...; even cycles pair (2,3),(4,5),...
// Unpaired replicas (the ends) get 0 and skip the exchange.
func defaultPartner(cycle, replica, replicas int) int {
	offset := 1
	if cycle%2 == 0 {
		offset = 2
	}
	if replica < offset {
		return 0
	}
	if (replica-offset)%2 == 0 {
		p := replica + 1
		if p > replicas {
			return 0
		}
		return p
	}
	return replica - 1
}

// ---------------------------------------------------------------------------
// Simulation Analysis Loop

// SimulationAnalysisLoop iterates a global-barrier two-stage pattern
// (Fig. 2c): N simulations, then M analyses, repeated. Optional pre- and
// post-loop kernels run once before and after.
type SimulationAnalysisLoop struct {
	// Iterations is the loop count.
	Iterations int
	// Simulations is the simulation-stage width N.
	Simulations int
	// Analyses is the analysis-stage width M.
	Analyses int
	// PreLoop, if non-nil, runs once before iteration 1.
	PreLoop func() *Kernel
	// SimulationKernel returns the kernel for one simulation instance of
	// one iteration (both 1-based).
	SimulationKernel func(iteration, instance int) *Kernel
	// AnalysisKernel returns the kernel for one analysis instance of one
	// iteration (both 1-based).
	AnalysisKernel func(iteration, instance int) *Kernel
	// PostLoop, if non-nil, runs once after the last iteration.
	PostLoop func() *Kernel
	// AdaptiveSimulations, if non-nil, overrides Simulations per
	// iteration — the paper's "vary the number of tasks between stages"
	// adaptivity (Section V). Close over analysis state to let results
	// steer the width.
	AdaptiveSimulations func(iteration int) int
	// AdaptiveStop, if non-nil, is consulted after each iteration's
	// analysis; returning true ends the loop early (PostLoop still runs).
	AdaptiveStop func(iteration int) bool
}

// PatternName implements Pattern.
func (p *SimulationAnalysisLoop) PatternName() string { return "simulation-analysis-loop" }

// TaskCount implements Pattern. By contract it is the static plan: it
// counts Iterations full iterations at the static Simulations width
// even when AdaptiveSimulations or AdaptiveStop is set (the hooks run
// only during execution, so no better estimate exists up front).
// Adaptive runs read their actual task count from Report.Tasks, which
// counts executed first attempts.
func (p *SimulationAnalysisLoop) TaskCount() int {
	n := p.Iterations * (p.Simulations + p.Analyses)
	if p.PreLoop != nil {
		n++
	}
	if p.PostLoop != nil {
		n++
	}
	return n
}

func (p *SimulationAnalysisLoop) validate() error {
	switch {
	case p.Iterations < 1:
		return fmt.Errorf("core: SAL with %d iterations", p.Iterations)
	case p.Simulations < 1:
		return fmt.Errorf("core: SAL with %d simulations", p.Simulations)
	case p.Analyses < 1:
		return fmt.Errorf("core: SAL with %d analyses", p.Analyses)
	case p.SimulationKernel == nil:
		return fmt.Errorf("core: SAL has no SimulationKernel")
	case p.AnalysisKernel == nil:
		return fmt.Errorf("core: SAL has no AnalysisKernel")
	}
	return nil
}
