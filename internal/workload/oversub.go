package workload

import (
	"fmt"
	"math"

	"entk/internal/cluster"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// The oversubscribed tier closes the ROADMAP item the mixed tier left
// open: a heterogeneous concurrent campaign whose peak demand exceeds
// the machine, so stages split across multiple scheduling waves and the
// pipelines genuinely contend for cores. Exact accounting (task counts,
// pattern overhead, queue-wait model) survives oversubscription and is
// still pinned exactly; the TTC shapes depend on how the contending
// waves interleave, so their golden checks are correspondingly looser —
// lower-bounded by the per-pipeline critical path, upper-bounded by a
// work-conservation argument.

// Stress100kOversubPlan is the default oversubscribed campaign on the
// 65536-core sim.stress64k pilot: peak concurrent demand 90112 cores
// (1.375x the machine), 159744 tasks total. Tasks run 900s — long
// enough that the wide pipeline's ~492s serialized submission stagger
// does not drain the early pipelines before the late ones arrive, so
// the demand peaks genuinely overlap and stages split across waves
// (with the tier-default 30s tasks the stagger alone serializes the
// campaign under the machine).
var Stress100kOversubPlan = []StressMixedPipeline{
	{Name: "wide", Width: 49152, Depth: 2, CoresPer: 1, Seconds: 900},
	{Name: "mid", Width: 24576, Depth: 2, CoresPer: 1, Seconds: 900},
	{Name: "narrow", Width: 4096, Depth: 3, CoresPer: 4, Seconds: 900},
}

// stressOversubSmoke is the scaled-down configuration the -short/CI
// smoke runs: shape-identical oversubscription (1.375x) on a 1024-core
// sim.stress8k pilot.
var (
	stressOversubSmokePlan = []StressMixedPipeline{
		{Name: "wide", Width: 768, Depth: 2, CoresPer: 1},
		{Name: "mid", Width: 384, Depth: 2, CoresPer: 1},
		{Name: "narrow", Width: 64, Depth: 3, CoresPer: 4},
	}
	stressOversubSmokeCores = 1024
)

// Stress100kOversub runs the oversubscribed campaign on the handoff
// engine.
func Stress100kOversub(plan []StressMixedPipeline) (*Stress100kMixedResult, error) {
	return Stress100kOversubOn(plan, vclock.EngineHandoff)
}

// Stress100kOversubOn is Stress100kOversub on an explicit vclock engine.
func Stress100kOversubOn(plan []StressMixedPipeline, eng vclock.Engine) (*Stress100kMixedResult, error) {
	if plan == nil {
		plan = Stress100kOversubPlan
	}
	return stressCampaignOn(Stress100kMachine, Stress100kCores, plan, eng)
}

// stressOversubSmokeOn runs the smoke-scale oversubscribed campaign.
func stressOversubSmokeOn(eng vclock.Engine) (*Stress100kMixedResult, error) {
	return stressCampaignOn(StressMachine, stressOversubSmokeCores, stressOversubSmokePlan, eng)
}

// CheckOversub asserts the oversubscribed tier's golden shapes — the
// looser sibling of Check, for plans whose peak demand exceeds the
// pilot:
//
//   - the plan is actually oversubscribed (otherwise Check applies);
//   - exact accounting still holds: every planned task ran, each
//     pipeline's pattern overhead is exactly its task count times the
//     client-side submission cost, and the queue-wait model is
//     unchanged — oversubscription perturbs scheduling, not accounting;
//   - each pipeline's execution time is lower-bounded by its critical
//     path (depth waves of the per-task runtime) and at least one
//     pipeline paid a genuine extra wave (a stage split);
//   - the campaign TTC equals the slowest pipeline's and beats the
//     serialized sum (the pipelines still overlapped), and it is
//     upper-bounded by twice the work-conservation bound — the total
//     core-seconds pushed through the machine plus the deepest
//     pipeline's critical path and the campaign's submission cost.
func (r *Stress100kMixedResult) CheckOversub() error {
	if len(r.Pipelines) != len(r.Plan) || len(r.Plan) < 2 {
		return fmt.Errorf("stress oversub: %d pipeline rows for %d plan entries",
			len(r.Pipelines), len(r.Plan))
	}
	m, err := cluster.Lookup(r.Machine)
	if err != nil {
		return err
	}
	perUnit := pilot.DefaultConfig().UMSubmitPerUnit.Seconds()
	peak, wantTotal := 0, 0
	coreSec, maxCritical, maxSeconds := 0.0, 0.0, 0.0
	var maxTTC, sumTTC, maxExtra float64
	for i, pp := range r.Plan {
		w := r.Pipelines[i]
		wantTasks := pp.Width * pp.Depth
		wantTotal += wantTasks
		peak += pp.Width * pp.CoresPer
		coreSec += float64(wantTasks*pp.CoresPer) * pp.taskSeconds()
		if cp := float64(pp.Depth) * pp.taskSeconds(); cp > maxCritical {
			maxCritical = cp
		}
		if pp.taskSeconds() > maxSeconds {
			maxSeconds = pp.taskSeconds()
		}
		if w.Tasks != wantTasks {
			return fmt.Errorf("stress oversub: pipeline %s ran %d tasks, want %d", w.Name, w.Tasks, wantTasks)
		}
		wantOvh := float64(w.Tasks) * perUnit
		if math.Abs(w.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
			return fmt.Errorf("stress oversub: pipeline %s pattern overhead %.3fs, want exactly %.3fs",
				w.Name, w.PatternOvhSec, wantOvh)
		}
		// Critical-path lower bound: depth barriers of at least one
		// full wave each. The one-wave upper bound of the mixed tier
		// does NOT apply — that is the point of this tier.
		wantExecMin := float64(pp.Depth) * pp.taskSeconds()
		if w.ExecSec < wantExecMin {
			return fmt.Errorf("stress oversub: pipeline %s exec %.1fs below its %.1fs critical path",
				w.Name, w.ExecSec, wantExecMin)
		}
		if extra := w.ExecSec - wantExecMin; extra > maxExtra {
			maxExtra = extra
		}
		if w.TTCSec < w.ExecSec+w.PatternOvhSec {
			return fmt.Errorf("stress oversub: pipeline %s TTC %.1fs < exec %.1fs + overhead %.1fs",
				w.Name, w.TTCSec, w.ExecSec, w.PatternOvhSec)
		}
		if w.TTCSec > maxTTC {
			maxTTC = w.TTCSec
		}
		sumTTC += w.TTCSec
	}
	if peak <= r.Cores {
		return fmt.Errorf("stress oversub: plan's peak demand %d fits the %d-core pilot — not oversubscribed",
			peak, r.Cores)
	}
	// A stage somewhere must have split into multiple waves: some
	// pipeline's exec span exceeds its critical path by a sizable
	// fraction of a wave.
	if maxExtra < 0.5*maxSeconds {
		return fmt.Errorf("stress oversub: no pipeline shows a split stage (max excess %.1fs over the critical path)",
			maxExtra)
	}
	c := r.Campaign
	if c.Tasks != wantTotal {
		return fmt.Errorf("stress oversub: campaign ran %d tasks, want %d", c.Tasks, wantTotal)
	}
	wantOvh := float64(wantTotal) * perUnit
	if math.Abs(c.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
		return fmt.Errorf("stress oversub: campaign pattern overhead %.3fs, want exactly %.3fs",
			c.PatternOvhSec, wantOvh)
	}
	if math.Abs(c.TTCSec-maxTTC) > 1e-9 {
		return fmt.Errorf("stress oversub: campaign TTC %.3fs != slowest pipeline %.3fs", c.TTCSec, maxTTC)
	}
	if c.TTCSec >= sumTTC {
		return fmt.Errorf("stress oversub: campaign TTC %.1fs not overlapping pipelines (serialized sum %.1fs)",
			c.TTCSec, sumTTC)
	}
	// Work-conservation upper bound, doubled for barrier and launcher
	// slack: the machine can drain coreSec in coreSec/cores seconds if
	// kept busy, plus the deepest critical path and the slowest
	// pipeline's serialized submission cost.
	bound := 2 * (coreSec/float64(r.Cores) + maxCritical + c.PatternOvhSec + 10)
	if c.TTCSec > bound {
		return fmt.Errorf("stress oversub: campaign TTC %.1fs exceeds the work-conservation bound %.1fs",
			c.TTCSec, bound)
	}
	// Queue wait: unchanged by oversubscription — the shared pilot's
	// full model delay with the per-node component dominating.
	nodes := m.NodesFor(r.Cores)
	baseWait := m.QueueWaitBase.Seconds()
	perNodeWait := float64(nodes) * m.QueueWaitPerNode.Seconds()
	if r.QueueWaitSec < baseWait+perNodeWait || r.QueueWaitSec > baseWait+perNodeWait+1 {
		return fmt.Errorf("stress oversub: queue wait %.1fs, want ~%.1fs (base %.0fs + %d nodes)",
			r.QueueWaitSec, baseWait+perNodeWait, baseWait, nodes)
	}
	return nil
}
