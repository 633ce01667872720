package core

import (
	"errors"
	"fmt"
	"sync"

	"entk/internal/pad"
	"entk/internal/pilot"
)

// AppManager executes application-built pipelines — many, heterogeneous,
// concurrent — on one ResourceSet (the session-level application
// manager the paper's fixed patterns hide). The set holds one pilot (a
// ResourceHandle) or several: campaigns are written once against the
// graph API and late-bind to whichever pilot of the set has capacity at
// dispatch time. Each pipeline submits its bulk waves independently;
// the set's shared wave batcher coalesces waves from the live pipelines
// at the unit manager, and per-pipeline accounting stays separate while
// the campaign report aggregates it — including per-pilot utilization
// columns for the campaign window.
type AppManager struct {
	rs *ResourceSet

	// Campaign tracker: the executors of the latest Run or Resume, in
	// campaign submission order. Each marks its last settled stage
	// barrier — a handful of counters, no copies — and Checkpoint builds
	// the snapshots from the marks. Always on, so Checkpoint can be
	// called at any time, including after a fault-aborted Run.
	mu    sync.Mutex
	track []*executor
}

// NewAppManager returns an application manager bound to the set. The
// set must be allocated before Run (Allocate, or via Execute-style
// sequencing by the caller).
func NewAppManager(rs *ResourceSet) *AppManager {
	return &AppManager{rs: rs}
}

// Checkpoint returns the campaign state at the last settled stage
// barriers of the most recent Run or Resume — callable mid-campaign
// from another clock process, or after a Run returned (fully or
// partially). Persist it with SaveCheckpoint and restart the campaign
// with Resume.
func (am *AppManager) Checkpoint() *CampaignCheckpoint {
	am.mu.Lock()
	defer am.mu.Unlock()
	cp := &CampaignCheckpoint{}
	for _, ex := range am.track {
		cp.Pipelines = append(cp.Pipelines, ex.checkpoint())
	}
	return cp
}

// CampaignReport is the outcome of one AppManager.Run: the aggregate
// campaign view plus one report per pipeline and one utilization row
// per pilot.
type CampaignReport struct {
	// Campaign aggregates the whole run: TTC is the campaign span (first
	// submission to last completion), task/retry/overhead counters are
	// sums over pipelines, and each pipeline's phases appear prefixed
	// with "<pipeline>.". CoreOverhead, QueueWait, and AgentStartup are
	// set-level quantities and appear here, not per pipeline.
	Campaign *Report
	// Pipelines holds per-pipeline reports in submission order. Each
	// TTC spans that pipeline's own first-submission-to-completion
	// window; pipelines run concurrently, so these overlap and their
	// sum exceeds the campaign TTC.
	Pipelines []*Report
	// Pilots holds one utilization row per pilot of the set, in set
	// order — how the late-bound campaign actually spread over the
	// machines.
	Pilots []PilotUtilization
}

// Run executes the pipelines concurrently on the allocated resources
// and blocks until every pipeline settles. A failing pipeline never
// cancels its siblings; the returned error joins every pipeline
// failure. Like ResourceSet.Run it must be called from a registered
// clock process, and multiple campaigns (or campaigns and patterns)
// may run sequentially on one set.
func (am *AppManager) Run(pls ...*Pipeline) (*CampaignReport, error) {
	return am.run(nil, pls)
}

// Resume restarts a campaign from a checkpoint: pipelines are matched
// to the checkpoint's snapshots by name, each matched pipeline skips
// its settled stage prefix and seeds its counters from the snapshot,
// and unmatched pipelines run from the start. The pipelines passed in
// must be the same graph the checkpoint was taken from (same names,
// same stage order) — the checkpoint records progress, not structure.
func (am *AppManager) Resume(cp *CampaignCheckpoint, pls ...*Pipeline) (*CampaignReport, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: Resume with nil checkpoint")
	}
	return am.run(cp, pls)
}

func (am *AppManager) run(cp *CampaignCheckpoint, pls []*Pipeline) (*CampaignReport, error) {
	rs := am.rs
	if len(pls) == 0 {
		return nil, fmt.Errorf("core: campaign with no pipelines")
	}
	names := make([]string, len(pls))
	for i, pl := range pls {
		if err := pl.validate(); err != nil {
			return nil, err
		}
		names[i] = pl.Name
		if names[i] == "" {
			names[i] = "p" + pad.Int(i+1, 1)
		}
	}
	if err := rs.needAllocated("campaign Run"); err != nil {
		return nil, err
	}
	if err := rs.waitActive(); err != nil {
		return nil, err
	}

	// Reset the campaign tracker to this run's executors, in submission
	// order, so Checkpoint() ordering is deterministic no matter which
	// pipeline settles a barrier first. On resume each starts from its
	// checkpoint snapshot — a pipeline that settles nothing further
	// re-checkpoints unchanged.
	exs := make([]*executor, len(pls))
	for i, pl := range pls {
		ex := newNamedExecutor(rs, names[i])
		ex.rank = i
		ex.planned = pl.TaskCount()
		ex.tracked = true
		ex.phases.log = make([]PhaseStat, 0, len(pl.Stages))
		if pc := cp.Pipeline(names[i]); pc != nil {
			ex.seedFrom(pc)
		}
		exs[i] = ex
	}
	am.mu.Lock()
	am.track = exs
	am.mu.Unlock()

	// Per-pilot utilization snapshots bracketing the campaign window,
	// keyed by identity: the set may grow (AddPilot) or shrink
	// (DrainPilot, injected faults) mid-campaign, so positions are not
	// stable. A pilot added mid-campaign has no "before" snapshot — the
	// map's zero value is exactly the right baseline.
	before := make(map[*pilot.ComputePilot]pilot.UtilSnapshot, len(rs.pilots))
	for _, p := range rs.Pilots() {
		before[p] = p.Util()
	}

	v := rs.cfg.Clock
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evRunStart)
	t0 := v.Now()
	reports := make([]*Report, len(pls))
	errs := make([]error, len(pls))
	runSet(v, len(pls), func(i int, end func()) {
		exs[i].startPipeline(pls[i], 0, func(r *pipeRun) {
			reports[i] = exs[i].report()
			reports[i].TTC = v.Now() - t0
			errs[i] = r.err
			end()
		})
	})
	ttc := v.Now() - t0
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evRunStop)

	agg := &Report{
		Pattern:  "campaign",
		Resource: rs.BindingLabel(),
		Cores:    rs.TotalCores(),
		TTC:      ttc,
	}
	n := 0
	for _, rep := range reports {
		n += len(rep.Phases)
	}
	phases := make([]PhaseStat, 0, n)
	var joined []error
	for i, rep := range reports {
		agg.PlannedTasks += rep.PlannedTasks
		agg.Tasks += rep.Tasks
		agg.Retries += rep.Retries
		agg.PatternOverhead += rep.PatternOverhead
		for _, ph := range rep.Phases {
			ph.Name = names[i] + "." + ph.Name
			phases = append(phases, ph)
		}
		if errs[i] != nil {
			joined = append(joined, fmt.Errorf("core: campaign pipeline %s: %w", names[i], errs[i]))
		}
	}
	agg.Phases = foldPhases(phases)
	rs.mu.Lock()
	agg.CoreOverhead = rs.allocCtl + rs.deallocCtl
	agg.QueueWait = rs.queueWait
	agg.AgentStartup = rs.agentStartup
	rs.mu.Unlock()

	endPilots := rs.Pilots()
	utils := make([]PilotUtilization, len(endPilots))
	for i, p := range endPilots {
		d := p.Util().Sub(before[p])
		u := PilotUtilization{
			Pilot:     p.ID,
			Resource:  p.Desc.Resource,
			Cores:     p.Desc.Cores,
			Tags:      p.Desc.Tags,
			Units:     d.Units,
			CoreBusy:  d.CoreBusy,
			QueueWait: p.QueueWait(),
		}
		if ttc > 0 && p.Desc.Cores > 0 {
			u.Utilization = d.CoreBusy.Seconds() / (float64(p.Desc.Cores) * ttc.Seconds())
		}
		utils[i] = u
	}
	return &CampaignReport{Campaign: agg, Pipelines: reports, Pilots: utils}, errors.Join(joined...)
}
