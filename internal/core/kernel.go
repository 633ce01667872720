// Package core implements the Ensemble Toolkit itself — the paper's
// contribution (Section III): kernel plugins as the task abstraction,
// the three execution patterns (ensemble of pipelines, ensemble exchange,
// simulation-analysis loop), the resource handle, and the execution
// plugins that bind a pattern's kernels into compute units and forward
// them to the pilot runtime. Applications parametrise a pattern with
// kernels and hand it to a ResourceHandle; everything below — task
// creation, submission, synchronisation, staging, scheduling — is hidden
// in this layer and the runtime.
package core

import (
	"fmt"

	"entk/internal/pilot"
	"entk/internal/stage"
)

// Kernel instantiates a kernel plugin for one task: the science tool, its
// arguments and cost-model parameters, its resource needs, and its data
// staging. It is the only vocabulary applications need to describe work.
type Kernel struct {
	// Name selects the kernel plugin, e.g. "md.amber".
	Name string
	// Executable is the task's real command. Simulation ignores it (the
	// cost model supplies the duration); in real mode the runner execs it
	// as an OS process, and a task without one sleeps its modelled
	// duration in wall time.
	Executable string
	// Args are the tool's command-line arguments: the real argv in real
	// mode, informational in simulation.
	Args []string
	// Params feed the plugin's cost model (atoms, ps, sims, ...).
	Params map[string]float64
	// Cores is the core count (default 1).
	Cores int
	// MPI marks the task as an MPI executable allowed to span nodes.
	MPI bool
	// Tags request pilot affinity in multi-pilot resource sets: under a
	// tag-affinity placement policy the task lands on a pilot carrying
	// every one of these tags (matched against PilotSpec.Tags). Ignored
	// by single-pilot bindings and non-affinity policies.
	Tags []string
	// InputStaging and OutputStaging move data before/after execution.
	InputStaging  []stage.Directive
	OutputStaging []stage.Directive
	// Work, if non-nil, runs real computation when the task completes;
	// the analysis examples use it to produce actual numbers.
	Work func() error
	// Retries overrides the pattern's retry budget for this task;
	// negative means "use the default".
	Retries int
	// FailOn injects deterministic failures per attempt (testing and
	// fault-tolerance demos).
	FailOn func(attempt int) bool
}

// Validate rejects malformed kernels.
func (k *Kernel) Validate() error {
	if k == nil {
		return fmt.Errorf("core: nil kernel")
	}
	if k.Name == "" {
		return fmt.Errorf("core: kernel has no name")
	}
	if k.Cores < 0 {
		return fmt.Errorf("core: kernel %s has negative cores", k.Name)
	}
	if k.Cores > 1 && !k.MPI {
		return fmt.Errorf("core: kernel %s wants %d cores but is not MPI", k.Name, k.Cores)
	}
	return nil
}

// bind translates the kernel into a pilot unit description — the job of
// the execution plugin's static binding step. The description carries
// no task name or attempt: every task a wave binds from this kernel
// shares it, and each unit supplies its own.
func (k *Kernel) bind() *pilot.UnitDescription {
	cores := k.Cores
	if cores == 0 {
		cores = 1
	}
	return &pilot.UnitDescription{
		Kernel:        k.Name,
		Executable:    k.Executable,
		Args:          k.Args,
		Params:        k.Params,
		Cores:         cores,
		MPI:           k.MPI,
		Tags:          k.Tags,
		InputStaging:  k.InputStaging,
		OutputStaging: k.OutputStaging,
		Work:          k.Work,
		FailOn:        k.FailOn,
	}
}

// retries resolves the kernel's retry budget against the default.
func (k *Kernel) retries(def int) int {
	if k.Retries < 0 {
		return def
	}
	if k.Retries > 0 {
		return k.Retries
	}
	return def
}
