// Package serve is the multi-tenant campaign service over the library
// core: a long-running daemon (cmd/entk-serve) that accepts declarative
// campaign descriptions (internal/campaign JSON) from concurrent
// clients and executes them on shared infrastructure.
//
// The package separates three lifetimes the library conflates:
//
//   - A campaign outlives the HTTP request that submitted it: POST
//     returns an id immediately and the campaign runs on; status,
//     report, trace, and checkpoint are fetched later against the id.
//   - A resource set outlives any one campaign: the orchestrator keys
//     shared pools by resource signature (pilot specs + placement +
//     retry budget + execution mode), so tenants submitting
//     against the same machines share one allocated ResourceSet, one
//     unit manager, and one wave batcher — the multi-AppManager path
//     the core grew in PR 5.
//   - The daemon outlives neither forever: graceful shutdown
//     checkpoints every in-flight graph campaign (PR 7 machinery) into
//     the state directory, and a restarted daemon resumes them.
//
// The virtual clock makes the first point non-trivial: a pool's
// simulation must not advance while the pool is idle (the clock would
// fast-forward straight to the pilots' walltime-expiry timers), yet
// must run freely while campaigns execute. The pool holds an idle
// phantom process for this — see pool.go.
//
// Fairness between tenants is enforced ahead of the shared batcher: a
// weighted admission queue (admission.go) dispatches queued campaigns
// so that each tenant's in-flight share tracks its weight, with
// per-tenant and global in-flight caps.
package serve

import (
	"time"

	"entk"
	"entk/internal/campaign"
)

// Options configures an Orchestrator.
type Options struct {
	// Mode selects simulated (default) or real execution for every pool
	// of this daemon (part of the pool key). In real mode pools run on
	// the wall clock and one shared local process executor runs kernels
	// that carry an executable; note an idle real pool's walltime keeps
	// counting down — wall time cannot be frozen between campaigns.
	Mode campaign.Mode
	// RealDir receives real-mode per-unit output captures; empty means
	// a fresh temporary directory.
	RealDir string

	// StateDir, when non-empty, is where campaign specs, reports,
	// traces, and shutdown checkpoints persist. Empty disables
	// persistence (and therefore resume-after-restart).
	StateDir string

	// TenantCap bounds each tenant's concurrently running campaigns.
	// Zero means unlimited.
	TenantCap int
	// MaxInFlight bounds the daemon's total concurrently running
	// campaigns. Zero means unlimited.
	MaxInFlight int
	// Weights assigns fair-share weights per tenant; tenants not
	// listed weigh 1. A tenant with weight 2 is admitted twice as much
	// in-flight work as a tenant with weight 1 under contention.
	Weights map[string]float64
}

// Campaign lifecycle states, as surfaced by Status.State.
const (
	// StateQueued: accepted, waiting for admission.
	StateQueued = "queued"
	// StateRunning: admitted onto a pool and executing.
	StateRunning = "running"
	// StateDone: settled successfully; report and trace available.
	StateDone = "done"
	// StateFailed: settled with an error; report (if any) and trace
	// are still available — the evidence of a failed run is exactly
	// what post-mortems want.
	StateFailed = "failed"
	// StateCheckpointed: interrupted by daemon shutdown with a resume
	// checkpoint persisted; a restarted daemon re-admits it.
	StateCheckpointed = "checkpointed"
	// StateAborted: interrupted by daemon shutdown without a resumable
	// checkpoint (pattern-form campaigns have no stage barriers to
	// checkpoint).
	StateAborted = "aborted"
)

// Status is the wire view of one campaign's lifecycle.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Pool   string `json:"pool,omitempty"`
	Error  string `json:"error,omitempty"`
	// Pipelines reports live progress for graph campaigns: the
	// always-on campaign tracker's latest stage-barrier snapshots.
	Pipelines []PipelineProgress `json:"pipelines,omitempty"`
}

// PipelineProgress is one pipeline's settled-barrier progress.
type PipelineProgress struct {
	Name          string        `json:"name"`
	SettledStages int           `json:"settled_stages"`
	Tasks         int           `json:"tasks"`
	Retries       int           `json:"retries"`
	Busy          time.Duration `json:"busy,omitempty"`
}

// ReportDoc is the wire form of a settled campaign's report: the
// campaign report for graph-form campaigns, the classic report for
// pattern-form ones.
type ReportDoc struct {
	ID       string               `json:"id"`
	Tenant   string               `json:"tenant"`
	Name     string               `json:"name,omitempty"`
	Campaign *entk.CampaignReport `json:"campaign,omitempty"`
	Pattern  *entk.Report         `json:"pattern,omitempty"`
}

// buildReportDoc renders a library result as the wire document. The
// service and the parity tests share it, so "byte-identical to the
// library run" is checked against the exact serialisation the daemon
// produces.
func buildReportDoc(id, tenant, name string, res *campaign.Result) *ReportDoc {
	doc := &ReportDoc{ID: id, Tenant: tenant, Name: name}
	if res != nil {
		doc.Campaign = res.Campaign
		doc.Pattern = res.Report
	}
	return doc
}
