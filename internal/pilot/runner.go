package pilot

import "time"

// The real-mode execution seam. In simulation, a unit's execution window
// is a virtual Sleep of the cost-model duration. With a UnitRunner
// installed (Config.Runner) and the session on a wall clock, the agent
// hands the window to the runner instead: the runner blocks for as long
// as the unit really takes — executing the unit's command as an OS
// process, or sleeping the modelled duration for kernels without one —
// and its error surfaces through exactly the path an injected FailOn
// failure would take, so the retry/rebind machinery upstream needs no
// real-mode awareness at all. Everything around the window (launch
// slot, staging, state transitions, profiler records, utilization
// accounting) is shared between the modes; that shared structure is what
// the sim-vs-real parity test pins. The modelled launch latency is a
// Clock.Charge: a delay in simulation, nothing on the wall clock.

// ExecRequest describes one unit-execution window handed to a UnitRunner.
type ExecRequest struct {
	// PilotID identifies the pilot whose agent dispatched the unit;
	// runners bound worker slots per pilot.
	PilotID int
	// PilotCores is the pilot's total core count — the runner's slot
	// capacity for this pilot, matching PilotSpec.Cores.
	PilotCores int
	// Unit is the unit's name (profiler entity spelling, e.g. "sim.0007").
	Unit string
	// UnitID is the session-scoped numeric unit id.
	UnitID int
	// Attempt counts resubmissions of logically the same task.
	Attempt int
	// Kernel is the kernel-plugin name (cost model / bookkeeping).
	Kernel string
	// Executable and Args are the real command; an empty Executable marks
	// a modelled kernel, which the runner sleeps for Model instead.
	Executable string
	Args       []string
	// Cores is the unit's core request; the runner holds that many of the
	// pilot's slots for the duration of the window.
	Cores int
	// Model is the cost model's predicted duration — the execution time
	// in sim mode, the fallback sleep for modelled kernels in real mode.
	Model time.Duration
}

// UnitRunner executes unit windows in real mode. Implementations must be
// safe for concurrent use: one agent runs many windows at once.
type UnitRunner interface {
	// RunUnit blocks for the unit's execution window and returns nil on
	// success or the execution failure (non-zero exit, killed process).
	// The agent maps an error onto UnitFailed, burning a retry.
	RunUnit(req ExecRequest) error
	// ReleasePilot tells the runner the pilot stopped (teardown, fault,
	// walltime): kill and reap every process still running on its behalf
	// so no orphans survive the agent. In-flight RunUnit calls for that
	// pilot return with the kill error.
	ReleasePilot(pilotID int)
}
