// Package pilot implements the pilot-job runtime system the toolkit
// delegates execution to, modelled on RADICAL-Pilot (Section III-C2). A
// ComputePilot is a placeholder job submitted to a machine's batch system;
// once its agent boots inside the allocation, any number of ComputeUnits
// are scheduled onto the pilot's cores at the application level —
// including multi-core (MPI) units — decoupling the workload size from
// the instantaneous resource availability.
package pilot

import (
	"sync"
	"time"

	"entk/internal/batch"
	"entk/internal/cluster"
	"entk/internal/pad"
	"entk/internal/profile"
	"entk/internal/stage"
	"entk/internal/vclock"
)

// CostModel predicts a kernel invocation's runtime; the kernels registry
// implements it. The pilot layer depends only on this interface so it
// stays ignorant of kernel semantics.
type CostModel interface {
	Duration(kernel string, params map[string]float64, cores int, m *cluster.Machine) (time.Duration, error)
}

// Placement selects the agent scheduler's node-packing strategy.
type Placement int

const (
	// FirstFit places a unit on the first node with enough free cores.
	// Units are tried in FIFO order but any unit that fits starts, so
	// later units may overtake a blocked head (continuous scheduling).
	FirstFit Placement = iota
	// BestFit places a unit on the feasible node with the fewest free
	// cores, reducing fragmentation for mixed-size workloads. Queue
	// discipline is continuous, as with FirstFit.
	BestFit
	// Backfill packs first-fit but keeps the queue near-FIFO: the first
	// blocked unit holds a reservation at its earliest possible start
	// (projected from running units' cost-model completion times), and a
	// later unit may jump it only if it cannot delay that start — EASY
	// backfilling at the agent layer. See agent.go.
	Backfill
)

func (p Placement) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case Backfill:
		return "backfill"
	default:
		return "first-fit"
	}
}

// Config tunes the runtime's overhead model and scheduling strategies.
type Config struct {
	// UMSubmitPerUnit is the client-side cost of creating and submitting
	// one unit (serialization, DB round trip). It is the component of the
	// toolkit overhead that grows with the number of tasks.
	UMSubmitPerUnit time.Duration
	// Agent picks the node-packing strategy inside each pilot.
	Agent Placement
	// BatchPolicy is the queue discipline of the simulated batch systems.
	BatchPolicy batch.Policy
	// Runner, when non-nil, switches the agents into real-mode execution:
	// each unit's execution window is handed to the runner (which execs
	// the unit's command or sleeps its modelled duration in real time)
	// instead of being a virtual Sleep. Requires the session clock to be
	// a wall clock — a runner blocking on a real process under a virtual
	// engine would stall the simulation. See runner.go.
	Runner UnitRunner
}

// DefaultConfig returns the configuration used for the paper
// reproductions.
func DefaultConfig() Config {
	return Config{
		UMSubmitPerUnit: 10 * time.Millisecond,
		Agent:           FirstFit,
		BatchPolicy:     batch.FIFO,
	}
}

// profVocab is the runtime's fixed profiler event vocabulary, interned
// once per session so every hot-path Record travels as pre-built ids —
// no per-event string hashing or map lookups, and (on the columnar
// layout) no string headers in the event log.
type profVocab struct {
	evNew, evUmgrBound                        profile.NameID
	evSubmit, evJobRunning, evActive, evFinal profile.NameID
	evStageinStart, evStageinStop             profile.NameID
	evExecStart, evExecStop                   profile.NameID
	evStageoutStart, evStageoutStop           profile.NameID
	evWaveStart, evWaveStop                   profile.NameID
	unitState                                 [len(unitStateEvents)]profile.NameID
	pilotState                                [len(pilotStateEvents)]profile.NameID
}

func (vo *profVocab) init(p *profile.Profiler) {
	vo.evNew = p.InternName("new")
	vo.evUmgrBound = p.InternName("umgr_bound")
	vo.evWaveStart = p.InternName("wave_submit_start")
	vo.evWaveStop = p.InternName("wave_submit_stop")
	vo.evSubmit = p.InternName("submit")
	vo.evJobRunning = p.InternName("job_running")
	vo.evActive = p.InternName("active")
	vo.evFinal = p.InternName("final")
	vo.evStageinStart = p.InternName("stagein_start")
	vo.evStageinStop = p.InternName("stagein_stop")
	vo.evExecStart = p.InternName("exec_start")
	vo.evExecStop = p.InternName("exec_stop")
	vo.evStageoutStart = p.InternName("stageout_start")
	vo.evStageoutStop = p.InternName("stageout_stop")
	for st := range vo.unitState {
		vo.unitState[st] = p.InternName(unitStateEvents[st])
	}
	for st := range vo.pilotState {
		vo.pilotState[st] = p.InternName(pilotStateEvents[st])
	}
}

// Session is the root object of the runtime (mirroring rp.Session): it
// owns the virtual clock, the profiler, the cost model, and one simulated
// batch system per machine.
type Session struct {
	V    vclock.Clock
	Prof *profile.Profiler
	Cost CostModel
	Cfg  Config

	vocab profVocab

	mu       sync.Mutex
	backends map[string]*backend
	nextPID  int
	nextUID  int
}

// unitStateName returns the pre-interned event-name id for a transition
// into st (interning on the fly only for out-of-range states).
func (s *Session) unitStateName(st UnitState) profile.NameID {
	if int(st) < len(s.vocab.unitState) {
		return s.vocab.unitState[st]
	}
	return s.Prof.InternName(st.stateEvent())
}

// pilotStateName is unitStateName for pilot states.
func (s *Session) pilotStateName(st PilotState) profile.NameID {
	if int(st) < len(s.vocab.pilotState) {
		return s.vocab.pilotState[st]
	}
	return s.Prof.InternName(st.stateEvent())
}

// backend bundles the per-machine simulation objects.
type backend struct {
	machine *cluster.Machine
	system  *batch.System
	mover   *stage.Mover
}

// NewSession creates a session with the given cost model and config. A
// config carrying a real-mode Runner demands a wall clock: real process
// execution blocks outside the engine's accounting, which would stall
// (and likely deadlock-panic) a virtual simulation.
func NewSession(v vclock.Clock, cost CostModel, cfg Config) *Session {
	if _, wall := v.(*vclock.Wall); cfg.Runner != nil && !wall {
		panic("pilot: Config.Runner requires a wall clock (vclock.NewWall); real execution cannot run under a virtual engine")
	}
	s := &Session{
		V:        v,
		Prof:     profile.New(v),
		Cost:     cost,
		Cfg:      cfg,
		backends: make(map[string]*backend),
	}
	s.vocab.init(s.Prof)
	return s
}

// backendFor returns (creating on first use) the simulation backend for a
// resource label.
func (s *Session) backendFor(resource string) (*backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.backends[resource]; ok {
		return b, nil
	}
	m, err := cluster.Lookup(resource)
	if err != nil {
		return nil, err
	}
	sys, err := batch.NewSystem(s.V, m, s.Cfg.BatchPolicy)
	if err != nil {
		return nil, err
	}
	// Batch and staging record their lifecycle events into the session
	// profiler with pre-interned ids, so the TTC decomposition can be
	// reconstructed down to queue admissions and individual staging ops.
	sys.SetProfiler(s.Prof)
	mover := stage.NewMover(s.V, m)
	mover.SetProfiler(s.Prof, "mover."+resource)
	b := &backend{
		machine: m,
		system:  sys,
		mover:   mover,
	}
	s.backends[resource] = b
	return b, nil
}

// pilotID allocates a pilot identifier.
func (s *Session) pilotID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextPID++
	return s.nextPID
}

// unitID allocates a unit identifier.
func (s *Session) unitID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextUID++
	return s.nextUID
}

// pilotEntity is a pilot's profiler key. A unit's key, "unit." and its
// six-digit id, is the profiler's own (Profiler.InternUnit).
func pilotEntity(id int) string { return "pilot." + pad.Int(id, 4) }
