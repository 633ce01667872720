package core

import (
	"fmt"
	"sync"
	"time"

	"entk/internal/kernels"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// Config carries the toolkit's runtime knobs.
type Config struct {
	// Clock is the virtual clock driving the simulation. Required.
	Clock vclock.Clock
	// Cost predicts kernel runtimes; nil installs the builtin kernel
	// registry.
	Cost pilot.CostModel
	// Runtime tunes the pilot layer; zero value takes pilot defaults.
	Runtime pilot.Config
	// Exec selects the executor implementation: the graph executor
	// (default — patterns are lowered to Task/Stage/Pipeline graphs and
	// run by the engine in graph.go) or the seed pattern executor
	// (ExecRef), kept as the reference path the graph-parity tests
	// compare against. Both produce bit-identical Reports.
	Exec ExecPath
	// MaxRetries is the default per-task retry budget (0 = no retries).
	MaxRetries int
}

// defaultCost lazily builds the shared builtin kernel registry used by
// every binding that does not bring its own cost model. The registry is
// concurrency-safe and bindings only read from it, so sharing one
// instance avoids rebuilding the builtin table per binding.
var defaultCost = sync.OnceValue(func() pilot.CostModel { return kernels.NewRegistry() })

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Clock == nil {
		return c, fmt.Errorf("core: config needs a clock")
	}
	if c.Cost == nil {
		c.Cost = defaultCost()
	}
	zero := pilot.Config{}
	if c.Runtime == zero {
		c.Runtime = pilot.DefaultConfig()
	}
	return c, nil
}

// ResourceHandle acquires resources and runs patterns on them (Section
// III-B3): Allocate submits the pilot, Run executes a pattern, Deallocate
// releases the allocation. Execute chains all three and produces the full
// TTC report.
//
// Since the resource-binding redesign the handle is a compatibility
// shim over a single-pilot ResourceSet (binding.go): the set carries
// the session, the unit manager, and the shared submission batcher,
// and the single-pilot path is bit-identical to the seed handle
// (gated by TestResourceSetReportParity). Multi-machine campaigns use
// a ResourceSet directly.
type ResourceHandle struct {
	// Resource is the machine label, e.g. "xsede.comet".
	Resource string
	// Cores is the pilot size.
	Cores int
	// Walltime bounds the allocation.
	Walltime time.Duration
	// Queue and Project pass through to the batch system.
	Queue   string
	Project string

	rs *ResourceSet
}

// NewResourceHandle validates the request and prepares a handle.
func NewResourceHandle(resource string, cores int, walltime time.Duration, cfg Config) (*ResourceHandle, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if resource == "" {
		return nil, fmt.Errorf("core: resource handle needs a resource")
	}
	if cores < 1 {
		return nil, fmt.Errorf("core: resource handle needs at least one core")
	}
	if walltime <= 0 {
		return nil, fmt.Errorf("core: resource handle needs a positive walltime")
	}
	h := &ResourceHandle{
		Resource: resource,
		Cores:    cores,
		Walltime: walltime,
	}
	h.rs = &ResourceSet{
		Specs: []PilotSpec{{Resource: resource, Cores: cores, Walltime: walltime}},
		cfg:   full,
	}
	return h, nil
}

// BindingLabel implements Binding.
func (h *ResourceHandle) BindingLabel() string { return h.Resource }

// TotalCores implements Binding.
func (h *ResourceHandle) TotalCores() int { return h.Cores }

// bind exposes the underlying single-pilot set.
func (h *ResourceHandle) bind() *ResourceSet { return h.rs }

// Session exposes the underlying runtime session (profiling, tests).
func (h *ResourceHandle) Session() *pilot.Session { return h.rs.Session() }

// Pilot exposes the allocated pilot, nil before Allocate.
func (h *ResourceHandle) Pilot() *pilot.ComputePilot {
	if len(h.rs.pilots) == 0 {
		return nil
	}
	return h.rs.pilots[0]
}

// ControlOverhead returns the toolkit's control-plane time so far
// (Allocate plus any completed Deallocate) — what Execute patches into
// Report.CoreOverhead after deallocation. Campaign runners that
// sequence Allocate / AppManager.Run / Deallocate themselves use it to
// account the dealloc phase like the pattern path does.
func (h *ResourceHandle) ControlOverhead() time.Duration { return h.rs.ControlOverhead() }

// Allocate initialises the toolkit and submits the resource request. It
// returns once the request is submitted (not when it becomes active);
// Run waits for activation. The time spent here is control-plane work and
// counts toward the core overhead.
func (h *ResourceHandle) Allocate() error {
	// The public fields may have been adjusted after construction
	// (Queue, Project); sync them into the spec late, like the seed
	// handle read them at Allocate.
	h.rs.Specs[0] = PilotSpec{
		Resource: h.Resource,
		Cores:    h.Cores,
		Walltime: h.Walltime,
		Queue:    h.Queue,
		Project:  h.Project,
	}
	return h.rs.Allocate()
}

// Run executes one pattern on the allocated resources and returns its
// report. Multiple patterns may run sequentially on one handle.
func (h *ResourceHandle) Run(p Pattern) (*Report, error) { return h.rs.Run(p) }

// Deallocate cancels the pilot and releases the session. Its control time
// joins the core overhead of subsequently produced reports.
func (h *ResourceHandle) Deallocate() error { return h.rs.Deallocate() }

// Execute allocates, runs the pattern, and deallocates, returning a
// report whose core overhead includes both control phases. This is what
// the experiment harness uses.
func (h *ResourceHandle) Execute(p Pattern) (*Report, error) { return h.rs.Execute(p) }
