package pilot

import (
	"fmt"
	"sync"
	"time"

	"entk/internal/profile"
	"entk/internal/stage"
	"entk/internal/vclock"
)

// Directive re-exports stage.Directive so that callers describing units
// need not import the staging package separately.
type Directive = stage.Directive

// Staging operation aliases for unit descriptions.
const (
	OpUpload   = stage.Upload
	OpCopy     = stage.Copy
	OpLink     = stage.Link
	OpDownload = stage.Download
)

// UnitState is a compute unit's lifecycle state, a condensed version of
// RADICAL-Pilot's state model. It is 32 bits wide so that a unit packs
// its state and its rebind generation into one word.
type UnitState int32

const (
	// UnitNew: described, not yet accepted by a unit manager.
	UnitNew UnitState = iota
	// UnitScheduling: accepted, being bound to a pilot.
	UnitScheduling
	// UnitQueued: in the pilot agent's queue, waiting for cores.
	UnitQueued
	// UnitStagingInput: input staging directives executing.
	UnitStagingInput
	// UnitExecuting: running on allocated cores.
	UnitExecuting
	// UnitStagingOutput: output staging directives executing.
	UnitStagingOutput
	// UnitDone: finished successfully.
	UnitDone
	// UnitFailed: finished with an error.
	UnitFailed
	// UnitCanceled: cancelled before completion. No runtime path ends a
	// unit here; the state stays because the profiler vocabulary interns
	// every state's name, and dropping one would move trace bytes.
	UnitCanceled
)

func (s UnitState) String() string {
	switch s {
	case UnitNew:
		return "NEW"
	case UnitScheduling:
		return "SCHEDULING"
	case UnitQueued:
		return "QUEUED"
	case UnitStagingInput:
		return "STAGING_INPUT"
	case UnitExecuting:
		return "EXECUTING"
	case UnitStagingOutput:
		return "STAGING_OUTPUT"
	case UnitDone:
		return "DONE"
	case UnitFailed:
		return "FAILED"
	case UnitCanceled:
		return "CANCELED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Final reports whether s is terminal.
func (s UnitState) Final() bool {
	return s == UnitDone || s == UnitFailed || s == UnitCanceled
}

// unitStateEvents precomputes the profiler event name for each state
// transition ("state_" + String()), avoiding a per-transition allocation
// on the unit hot path.
var unitStateEvents = [...]string{
	UnitNew:           "state_NEW",
	UnitScheduling:    "state_SCHEDULING",
	UnitQueued:        "state_QUEUED",
	UnitStagingInput:  "state_STAGING_INPUT",
	UnitExecuting:     "state_EXECUTING",
	UnitStagingOutput: "state_STAGING_OUTPUT",
	UnitDone:          "state_DONE",
	UnitFailed:        "state_FAILED",
	UnitCanceled:      "state_CANCELED",
}

// stateEvent returns the profiler event name for a transition into s.
func (s UnitState) stateEvent() string {
	if int(s) < len(unitStateEvents) {
		return unitStateEvents[s]
	}
	return "state_" + s.String()
}

// UnitDescription describes one task, the pilot-level analogue of a kernel
// plugin instantiation.
type UnitDescription struct {
	// Name labels the unit in profiles and errors, e.g. "sim.0007".
	Name string
	// Kernel is the kernel-plugin name driving the cost model.
	Kernel string
	// Executable and Args are the unit's real command, exec'd as an OS
	// process by a real-mode runner (Config.Runner). Simulation ignores
	// them; a real-mode unit without an Executable sleeps its modelled
	// duration in wall time instead.
	Executable string
	Args       []string
	// Params parameterises the kernel's cost model.
	Params map[string]float64
	// Cores is the core count; >1 requires MPI.
	Cores int
	// MPI marks the unit as an MPI task, allowed to span nodes.
	MPI bool
	// Tags request pilot affinity in multi-pilot sets: a tag-affinity
	// placement policy routes the unit to a pilot carrying every one of
	// these tags. Untagged units place anywhere they fit.
	Tags []string
	// InputStaging runs before execution.
	InputStaging []stage.Directive
	// OutputStaging runs after execution.
	OutputStaging []stage.Directive
	// Work, if non-nil, is real computation executed (in zero virtual
	// time) when the unit completes — the hook by which analysis kernels
	// produce actual numbers while the clock models their cost.
	Work func() error
	// Attempt counts resubmissions of logically the same task; the
	// toolkit's retry layer increments it.
	Attempt int
	// FailOn, if non-nil, reports whether this attempt should fail — the
	// deterministic fault-injection hook used by tests and the fault
	// tolerance examples.
	FailOn func(attempt int) bool
}

// validate rejects a malformed description, naming the unit it was
// given for.
func (d *UnitDescription) validate(name string) error {
	switch {
	case d == nil:
		return fmt.Errorf("pilot: unit %q has no description", name)
	case d.Kernel == "":
		return fmt.Errorf("pilot: unit %q has no kernel", name)
	case d.Cores <= 0:
		return fmt.Errorf("pilot: unit %q requests %d cores", name, d.Cores)
	case d.Cores > 1 && !d.MPI:
		return fmt.Errorf("pilot: unit %q wants %d cores but is not MPI", name, d.Cores)
	}
	return nil
}

// WaveUnit is one unit of a compact wave: a description shared with
// every other unit of the wave bound from the same kernel, and the
// unit's own name and attempt, which override the description's.
type WaveUnit struct {
	Desc    *UnitDescription
	Name    string
	Attempt int
}

// waveOf views descs as a compact wave whose units point into descs.
func waveOf(descs []UnitDescription) []WaveUnit {
	wave := make([]WaveUnit, len(descs))
	for i := range descs {
		wave[i] = WaveUnit{Desc: &descs[i], Name: descs[i].Name, Attempt: descs[i].Attempt}
	}
	return wave
}

// ComputeUnit is a scheduled task instance. Its description is shared
// with the other units of its wave bound from the same kernel, and is
// never written after submission; the unit keeps its own name and
// attempt.
type ComputeUnit struct {
	ID int

	desc     *UnitDescription
	name     string
	sess     *Session
	entityID profile.EntityID // interned once; state transitions record by id
	attempt  int32

	mu    sync.Mutex
	state UnitState
	// gen is the rebind generation. When a pilot dies with a recovery
	// path installed, its teardown steals the unit — bumping gen — and
	// rebinding re-runs it elsewhere; the stale run still holds the
	// old generation, so its remaining effects (state transitions, exec
	// window, finish) are discarded by the *From accessors below. Zero
	// for the whole life of any unit that is never stolen.
	gen     int32
	err     error
	pilot   *ComputePilot
	started time.Duration // exec start (virtual)
	stopped time.Duration // exec stop (virtual)
	finalEv vclock.Latch  // named by String in deadlock dumps
	// onFinal, when set, is told once that the unit turned final, in
	// place of a process parked in WaitFinal. It runs in whatever
	// context settled the unit, so it must not block on the clock.
	onFinal func(*ComputeUnit)
}

func newUnit(s *Session, w WaveUnit, onFinal func(*ComputeUnit)) *ComputeUnit {
	id := s.unitID()
	return &ComputeUnit{
		ID:       id,
		desc:     w.Desc,
		name:     w.Name,
		attempt:  int32(w.Attempt),
		sess:     s,
		entityID: s.Prof.InternUnit(id),
		state:    UnitNew,
		onFinal:  onFinal,
	}
}

// NewReplayUnit reconstructs a settled compute unit from checkpointed
// state, for PostStage hook replay on resume: the unit is born final
// (state must be terminal) with its recorded exec window, its final
// event pre-fired, and no session behind it — every read accessor a
// hook can call (State, Err, ExecWindow, ExecDuration, WaitFinal,
// Desc) answers as the original did, while the mutating paths are all
// no-ops on a final unit. Replay units never touch a pilot, an agent,
// or the profiler.
func NewReplayUnit(v vclock.Clock, desc UnitDescription, st UnitState, start, stop time.Duration) *ComputeUnit {
	if !st.Final() {
		st = UnitDone
	}
	u := &ComputeUnit{
		ID:      -1,
		desc:    &desc,
		name:    desc.Name,
		attempt: int32(desc.Attempt),
		state:   st,
		started: start,
		stopped: stop,
	}
	u.finalEv.Fire(v)
	return u
}

// Entity returns the unit's profiler entity key: "unit." and its
// six-digit id, or "replay." and its name for a replay unit.
func (u *ComputeUnit) Entity() string {
	if u.sess == nil {
		return "replay." + u.name
	}
	return u.sess.Prof.EntityName(u.entityID)
}

// String returns the unit's entity key.
func (u *ComputeUnit) String() string { return u.Entity() }

// Name returns the unit's task name, e.g. "sim.0007".
func (u *ComputeUnit) Name() string { return u.name }

// Desc returns a copy of the unit's description carrying the unit's
// own name and attempt.
func (u *ComputeUnit) Desc() UnitDescription {
	d := *u.desc
	d.Name, d.Attempt = u.name, int(u.attempt)
	return d
}

// State returns the current state.
func (u *ComputeUnit) State() UnitState {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.state
}

// Err returns the failure cause for a FAILED unit.
func (u *ComputeUnit) Err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// Pilot returns the pilot the unit was bound to, if any.
func (u *ComputeUnit) Pilot() *ComputePilot {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pilot
}

// ExecWindow returns the unit's execution start and stop times on the
// virtual clock; ok is false if the unit never executed.
func (u *ComputeUnit) ExecWindow() (start, stop time.Duration, ok bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.stopped == 0 && u.started == 0 {
		return 0, 0, false
	}
	return u.started, u.stopped, true
}

// ExecDuration returns how long the unit executed; valid once final.
func (u *ComputeUnit) ExecDuration() time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.stopped < u.started {
		return 0
	}
	return u.stopped - u.started
}

// WaitFinal blocks the calling process until the unit is terminal and
// returns the final state.
func (u *ComputeUnit) WaitFinal() UnitState {
	if !u.finalEv.Fired() { // a replay unit, born final, has no session
		u.finalEv.Wait(u.sess.V, u)
	}
	return u.State()
}

// setState transitions the unit, recording the transition in the profiler.
// Transitions out of a final state are ignored.
func (u *ComputeUnit) setState(st UnitState) {
	u.mu.Lock()
	if u.state.Final() {
		u.mu.Unlock()
		return
	}
	u.state = st
	u.mu.Unlock()
	u.sess.Prof.RecordID(u.entityID, u.sess.unitStateName(st))
}

// finish moves the unit to a terminal state and fires its final event.
func (u *ComputeUnit) finish(st UnitState, err error) { u.finishFrom(-1, st, err) }

// finishFrom is finish gated on the rebind generation: a stale run
// (gen >= 0, no longer current) must not settle a unit that was stolen
// and re-dispatched. gen < 0 disables the gate (external finishers, and
// agents that do not track in-flight work).
func (u *ComputeUnit) finishFrom(gen int, st UnitState, err error) {
	u.mu.Lock()
	if (gen >= 0 && gen != int(u.gen)) || u.state.Final() {
		u.mu.Unlock()
		return
	}
	u.state = st
	u.err = err
	u.mu.Unlock()
	u.sess.Prof.RecordID(u.entityID, u.sess.unitStateName(st))
	u.finalEv.Fire(u.sess.V)
	if u.onFinal != nil {
		u.onFinal(u)
	}
}

// setStateFrom is setState gated on the rebind generation, reporting
// whether the transition (and its profiler record) happened.
func (u *ComputeUnit) setStateFrom(gen int, st UnitState) bool {
	u.mu.Lock()
	if (gen >= 0 && gen != int(u.gen)) || u.state.Final() {
		u.mu.Unlock()
		return false
	}
	u.state = st
	u.mu.Unlock()
	u.sess.Prof.RecordID(u.entityID, u.sess.unitStateName(st))
	return true
}

// markExecFrom records the execution window for ExecDuration, gated on
// the rebind generation; a false return tells the (stale) run to
// abandon the unit — the exec-stop record, utilization bump, and finish
// all belong to the rebound run.
func (u *ComputeUnit) markExecFrom(gen int, start, stop time.Duration) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if gen >= 0 && gen != int(u.gen) {
		return false
	}
	u.started, u.stopped = start, stop
	return true
}

// staleGen reports whether gen is an outdated rebind generation.
func (u *ComputeUnit) staleGen(gen int) bool {
	if gen < 0 {
		return false
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return gen != int(u.gen)
}

// generation snapshots the current rebind generation; the agent captures
// it at placement so the run's effects can be matched to the
// placement they came from.
func (u *ComputeUnit) generation() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return int(u.gen)
}

// steal reclaims a non-final unit from a dead (or shrinking) pilot for
// rebinding: the generation is bumped — discarding every later effect of
// the stale run — and the exec window is cleared for the re-run. The
// stale run itself is not cancelled: its pending timer stays armed and
// fires no later than the rebound replacement finishes (it was armed
// earlier for the same modelled duration), and the run ends at its next
// generation gate, releasing its allocation.
func (u *ComputeUnit) steal() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.state.Final() {
		return false
	}
	u.gen++
	u.started, u.stopped = 0, 0
	return true
}
