// Package entk is the public API of the Ensemble Toolkit reproduction: a
// Go implementation of "Ensemble Toolkit: Scalable and Flexible Execution
// of Ensembles of Tasks" (Balasubramanian et al., ICPP 2016), grown past
// the paper's three fixed patterns into an explicit task-graph toolkit.
//
// The primary vocabulary is the graph model: a Task names a kernel
// invocation, a Stage is a set of tasks with a barrier (and an optional
// PostStage hook that may grow or prune the graph at runtime — the
// adaptivity the paper plans in Section V), a Pipeline is an ordered
// sequence of stages, and an AppManager executes any number of
// heterogeneous pipelines concurrently on one resource handle (a
// one-pilot ResourceSet):
//
//	v := entk.NewClock()
//	h, err := entk.NewResourceHandle("xsede.comet", 48, time.Hour, entk.Config{Clock: v})
//	if err != nil { ... }
//	wide := &entk.Pipeline{Name: "wide", Stages: []*entk.Stage{
//		{Tasks: tasks("md.amber", 32)},
//		{Tasks: tasks("ana.coco", 32)},
//	}}
//	narrow := &entk.Pipeline{Name: "narrow", Stages: []*entk.Stage{
//		{Tasks: tasks("md.gromacs", 4)},
//	}}
//	var camp *entk.CampaignReport
//	v.Run(func() {
//		if err = h.Allocate(); err != nil { return }
//		camp, err = entk.NewAppManager(h).Run(wide, narrow)
//		h.Deallocate()
//	})
//
// Resource binding is decoupled from the workload description — the
// paper's core claim. A campaign written once against the graph API
// runs unchanged on a single pilot (ResourceHandle, as above) or on a
// ResourceSet spanning several machines, with every task
// late-bound to whichever pilot the placement policy selects at
// dispatch time (round-robin, least-loaded-by-free-cores, or tag
// affinity routing e.g. MPI-wide tasks to the wide-node machine):
//
//	set, err := entk.NewResourceSet([]entk.PilotSpec{
//		{Resource: "xsede.comet", Cores: 48, Walltime: time.Hour},
//		{Resource: "xsede.stampede", Cores: 64, Walltime: time.Hour, Tags: []string{"mpi"}},
//	}, entk.Config{Clock: v})
//	set.Placement = entk.PlaceTagAffinity(nil)
//	// ... set.Allocate(); entk.NewAppManager(set).Run(pipelines...)
//
// The campaign report then carries per-pilot utilization columns next
// to the per-pipeline TTC decompositions, and a shared submission
// batcher coalesces the live pipelines' waves at the unit manager.
//
// The paper's execution patterns (EnsembleOfPipelines, EnsembleExchange,
// SimulationAnalysisLoop, and the higher-order Composite) remain the
// concise front door for the classic scenarios; they are now thin
// constructors that *lower* onto the graph model and run through the
// same executor (ResourceSet.Execute / Run).
//
// Execution happens on a simulated HPC testbed (batch queues, pilot
// agents, data staging) driven by a virtual clock, so thousand-core
// experiments complete in milliseconds while preserving the concurrency
// structure of the real system. The same campaign also runs for real:
// NewWallClock returns the wall-clock implementation of the Clock
// interface, and a Config.Runtime.Runner (the local process executor
// behind cmd/entk-run -mode=real) execs kernels that carry an
// Executable as OS processes — same event vocabulary, same reports,
// over wall instants. Real mode is not bit-reproducible; see DESIGN.md
// ("realtime") for the determinism contract, and DESIGN.md generally for the
// substitution map against the paper's physical testbed and the graph
// model's lowering table.
package entk

import (
	"io"
	"time"

	"entk/internal/core"
	"entk/internal/kernels"
	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/stage"
	"entk/internal/vclock"
)

// Version identifies this release of the toolkit reproduction.
const Version = "1.5.0"

// Re-exported user-facing types. The implementations live in
// internal/core (the toolkit) and internal supporting packages.
type (
	// Kernel instantiates a kernel plugin for one task.
	Kernel = core.Kernel
	// Config carries toolkit configuration.
	Config = core.Config
	// ResourceHandle allocates resources and runs patterns — the classic
	// single-pilot binding. It is a ResourceSet of one spec, so it has
	// every ResourceSet method.
	ResourceHandle = core.ResourceHandle
	// ResourceSet acquires an ordered set of pilots on (possibly
	// different) machines behind one session; campaigns late-bind each
	// task to whichever pilot the placement policy selects.
	ResourceSet = core.ResourceSet
	// PilotSpec requests one pilot of a resource set.
	PilotSpec = core.PilotSpec
	// PlacementPolicy late-binds each unit to a pilot of a set.
	PlacementPolicy = pilot.PlacementPolicy
	// PilotUtilization is one pilot's share of a campaign
	// (CampaignReport.Pilots).
	PilotUtilization = core.PilotUtilization
	// FaultPlan schedules deterministic failure injection against a
	// resource set (ResourceSet.Faults).
	FaultPlan = pilot.FaultPlan
	// FaultSpec is one scheduled fault of a plan.
	FaultSpec = pilot.Fault
	// FaultKind selects what a scheduled fault does.
	FaultKind = pilot.FaultKind
	// CampaignCheckpoint is the resumable state of one campaign
	// (AppManager.Checkpoint / AppManager.Resume).
	CampaignCheckpoint = core.CampaignCheckpoint
	// PipelineCheckpoint is one pipeline's stage-barrier snapshot.
	PipelineCheckpoint = core.PipelineCheckpoint

	// Task is one node of the graph: a named kernel invocation.
	Task = core.Task
	// Stage is a set of tasks with a barrier and an adaptivity hook.
	Stage = core.Stage
	// Pipeline is an ordered sequence of stages.
	Pipeline = core.Pipeline
	// StageCtl is the PostStage hook's view of a settled stage.
	StageCtl = core.StageCtl
	// AppManager executes heterogeneous pipelines concurrently.
	AppManager = core.AppManager
	// CampaignReport aggregates one AppManager run.
	CampaignReport = core.CampaignReport
	// ComputeUnit is the runtime's handle on one executed task, as seen
	// by StageCtl.Units.
	ComputeUnit = pilot.ComputeUnit

	// Pattern is an execution pattern.
	Pattern = core.Pattern
	// EnsembleOfPipelines is the independent-pipelines pattern.
	EnsembleOfPipelines = core.EnsembleOfPipelines
	// EnsembleExchange is the interacting-ensembles pattern.
	EnsembleExchange = core.EnsembleExchange
	// SimulationAnalysisLoop is the iterative two-stage pattern.
	SimulationAnalysisLoop = core.SimulationAnalysisLoop
	// Composite sequences unit patterns into a higher-order pattern.
	Composite = core.Composite
	// ExchangeMode selects EE exchange semantics.
	ExchangeMode = core.ExchangeMode
	// Report is the TTC decomposition of one pattern or pipeline run.
	Report = core.Report
	// PhaseStat aggregates one pattern phase.
	PhaseStat = core.PhaseStat
	// PatternError reports tasks that exhausted their retries.
	PatternError = core.PatternError
	// StagingDirective moves data before or after a task.
	StagingDirective = stage.Directive
	// Clock is the process clock applications run under: the virtual
	// simulation clock (NewClock) or the wall clock
	// (NewWallClock) that real-mode execution uses. It is an interface;
	// construct through this package or vclock.
	Clock = vclock.Clock
	// VirtualClock is the concrete discrete-event clock behind NewClock,
	// exported for callers that need the simulation-only surface.
	VirtualClock = vclock.Virtual
	// UnitRunner executes real-mode unit commands; see NewWallClock and
	// internal/realtime for the local process implementation.
	UnitRunner = pilot.UnitRunner
	// ExecRequest is one real-mode execution window handed to a UnitRunner.
	ExecRequest = pilot.ExecRequest
	// RuntimeConfig tunes the pilot runtime.
	RuntimeConfig = pilot.Config
	// KernelRegistry resolves kernels and their cost models.
	KernelRegistry = kernels.Registry
	// KernelSpec defines a kernel plugin.
	KernelSpec = kernels.Spec
)

// Exchange mode values.
const (
	CollectiveExchange = core.CollectiveExchange
	PairwiseExchange   = core.PairwiseExchange
)

// Staging operations.
const (
	StageUpload   = stage.Upload
	StageCopy     = stage.Copy
	StageLink     = stage.Link
	StageDownload = stage.Download
)

// Agent placement policies (RuntimeConfig.Agent): how the pilot agent
// packs units onto nodes and disciplines its queue.
const (
	AgentFirstFit = pilot.FirstFit
	AgentBestFit  = pilot.BestFit
	AgentBackfill = pilot.Backfill
)

// Fault kinds (FaultSpec.Kind): what a scheduled fault does to its
// target pilot at the planned virtual instant.
const (
	// FaultKillPilot terminates the pilot abruptly.
	FaultKillPilot = pilot.FaultKillPilot
	// FaultExpireWalltime ends the pilot as a walltime expiry.
	FaultExpireWalltime = pilot.FaultExpireWalltime
	// FaultNodeLoss removes the last FaultSpec.Nodes nodes from the
	// pilot's agent; the pilot keeps running at reduced capacity.
	FaultNodeLoss = pilot.FaultNodeLoss
)

// NewClock returns the virtual clock a simulation runs under.
func NewClock() Clock { return vclock.NewVirtual() }

// NewWallClock returns the monotonic wall clock real-mode execution runs
// under: Sleep really sleeps, walltime and fault timers really fire, and
// the rest of the runtime is unchanged. Pair it with a UnitRunner
// (RuntimeConfig.Runner) so kernels carrying an Executable run as OS
// processes; see internal/realtime.
func NewWallClock() Clock { return vclock.NewWall() }

// NewResourceHandle validates the resource request and prepares a
// one-pilot ResourceSet.
func NewResourceHandle(resource string, cores int, walltime time.Duration, cfg Config) (*ResourceHandle, error) {
	return core.NewResourceHandle(resource, cores, walltime, cfg)
}

// NewAppManager returns an application manager that executes pipelines
// concurrently on the set's allocation — one pilot (a ResourceHandle)
// or several machines.
func NewAppManager(rs *ResourceSet) *AppManager { return core.NewAppManager(rs) }

// NewResourceSet validates the pilot specs and prepares a multi-pilot
// resource set; assign Placement on the returned set before Allocate to
// select a late-binding policy (multi-pilot sets default to
// round-robin over eligible pilots).
func NewResourceSet(specs []PilotSpec, cfg Config) (*ResourceSet, error) {
	return core.NewResourceSet(specs, cfg)
}

// Placement policies for multi-pilot resource sets (ResourceSet.Placement):
// late binding of each unit to a pilot at dispatch time.

// PlaceRoundRobin deals units to eligible pilots in set order.
func PlaceRoundRobin() PlacementPolicy { return pilot.PlaceRoundRobin() }

// PlaceLeastLoaded routes each unit to the eligible pilot with the most
// free cores at dispatch time.
func PlaceLeastLoaded() PlacementPolicy { return pilot.PlaceLeastLoaded() }

// PlaceTagAffinity routes tagged tasks (Kernel.Tags) to pilots carrying
// every one of their tags (PilotSpec.Tags), delegating the choice among
// matches — and all untagged placement — to next (round-robin when nil).
func PlaceTagAffinity(next PlacementPolicy) PlacementPolicy { return pilot.PlaceTagAffinity(next) }

// NewKernelRegistry returns a registry pre-populated with the builtin
// kernel plugins (md.amber, md.gromacs, ana.coco, ana.lsdmap, ...);
// applications may Register additional plugins.
func NewKernelRegistry() *KernelRegistry { return kernels.NewRegistry() }

// DefaultRuntimeConfig returns the pilot runtime configuration used for
// the paper reproduction.
func DefaultRuntimeConfig() RuntimeConfig { return pilot.DefaultConfig() }

// SaveCheckpoint serialises a campaign checkpoint to w; a non-nil prof
// appends the profiler's full trace dump to the same stream, so one
// file carries both the resume state and the evidence of the run that
// produced it.
func SaveCheckpoint(w io.Writer, cp *CampaignCheckpoint, prof *profile.Profiler) error {
	return core.SaveCheckpoint(w, cp, prof)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint; a
// non-nil prof (which must be empty) receives the trace section when
// the stream carries one.
func LoadCheckpoint(r io.Reader, prof *profile.Profiler) (*CampaignCheckpoint, error) {
	return core.LoadCheckpoint(r, prof)
}

// Resume restarts a campaign from a checkpoint on a fresh set:
// pipelines are matched to the checkpoint's snapshots by name, each
// matched pipeline skips its settled stage prefix, and the resumed
// report agrees with an uninterrupted run on every reorder-invariant
// column. Equivalent to NewAppManager(rs).Resume(cp, pls...).
func Resume(rs *ResourceSet, cp *CampaignCheckpoint, pls ...*Pipeline) (*CampaignReport, error) {
	return core.NewAppManager(rs).Resume(cp, pls...)
}

// Resources lists the registered machine labels.
func Resources() []string {
	return resourceNames()
}
