package workload

import (
	"fmt"
	"io"
	"math"
	"time"

	"entk/internal/cluster"
	"entk/internal/core"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// The mixed tier is the graph API's payoff workload (the PR 3 open
// item): a ~100k-task campaign of heterogeneous concurrent pipelines —
// interleaved wide/narrow, depth 2-4, single-core and 4-core MPI tasks —
// on the 65536-core sim.stress64k machine, expressed directly against
// the Task/Stage/Pipeline graph and executed by one AppManager. Where
// the single-stage 100k tier stresses one huge homogeneous wave, this
// tier stresses the scheduler's fragmentation paths: waves of different
// widths and unit sizes arrive and drain at different times on one
// shared allocation, and the per-pipeline TTC decompositions must still
// come out exact.

// StressMixedPipeline describes one pipeline of the mixed campaign.
type StressMixedPipeline struct {
	Name     string
	Width    int      // tasks per stage
	Depth    int      // stages
	CoresPer int      // cores per task (MPI when > 1)
	Tags     []string // pilot affinity tags (multi-pilot campaigns)
	Seconds  float64  // per-task runtime; 0 = the tier default (30s)
}

// taskSeconds resolves the per-task runtime against the tier default.
func (pp *StressMixedPipeline) taskSeconds() float64 {
	if pp.Seconds > 0 {
		return pp.Seconds
	}
	return stress100kSeconds
}

// Stress100kMixedPlan is the default campaign: 100352 tasks total, peak
// concurrent demand 51200 cores (each stage runs in one wave; the mix,
// not oversubscription, is the point — the single-stage tier already
// covers multi-wave).
var Stress100kMixedPlan = []StressMixedPipeline{
	{Name: "wide", Width: 32768, Depth: 2, CoresPer: 1},
	{Name: "mid", Width: 8192, Depth: 3, CoresPer: 1},
	{Name: "narrow", Width: 2560, Depth: 4, CoresPer: 4},
}

// stress100kMixedSmokePlan is the scaled-down plan the -short/CI smoke
// runs; shape-identical, 1/32 the width.
var stress100kMixedSmokePlan = []StressMixedPipeline{
	{Name: "wide", Width: 1024, Depth: 2, CoresPer: 1},
	{Name: "mid", Width: 256, Depth: 3, CoresPer: 1},
	{Name: "narrow", Width: 80, Depth: 4, CoresPer: 4},
}

// Stress100kMixedRow is one pipeline's (or the campaign's) measured
// decomposition.
type Stress100kMixedRow struct {
	Name          string
	Width         int
	Depth         int
	CoresPer      int
	Tasks         int
	TTCSec        float64
	ExecSec       float64
	PatternOvhSec float64
}

// Stress100kMixedResult holds the campaign outcome: the aggregate row,
// per-pipeline rows, and the handle-level components. Machine and Cores
// record the pilot the campaign ran on (the oversubscribed tier and the
// smoke plans run on different pilots than the default 64k machine).
type Stress100kMixedResult struct {
	Plan            []StressMixedPipeline
	Machine         string
	Cores           int
	Campaign        Stress100kMixedRow
	Pipelines       []Stress100kMixedRow
	QueueWaitSec    float64
	AgentStartupSec float64
	CoreOvhSec      float64
}

// buildMixedPipelines expresses the plan through the graph API: one
// Pipeline per plan entry, Depth stages of Width tasks each, sharing
// one kernel instance per pipeline (bind never mutates it).
func buildMixedPipelines(plan []StressMixedPipeline) []*core.Pipeline {
	pls := make([]*core.Pipeline, len(plan))
	for i, pp := range plan {
		kernel := &core.Kernel{
			Name:   "misc.sleep",
			Params: map[string]float64{"seconds": pp.taskSeconds()},
			Cores:  pp.CoresPer,
			MPI:    pp.CoresPer > 1,
		}
		kernel.Tags = pp.Tags
		stages := make([]*core.Stage, pp.Depth)
		for s := range stages {
			tasks := make([]core.Task, pp.Width)
			for t := range tasks {
				tasks[t] = core.Task{Kernel: kernel}
			}
			stages[s] = &core.Stage{Tasks: tasks}
		}
		pls[i] = &core.Pipeline{Name: pp.Name, Stages: stages}
	}
	return pls
}

// Stress100kMixed runs the mixed campaign (nil plan: the full 100k
// plan).
func Stress100kMixed(plan []StressMixedPipeline) (*Stress100kMixedResult, error) {
	if plan == nil {
		plan = Stress100kMixedPlan
	}
	return stressCampaignOn(Stress100kMachine, Stress100kCores, plan)
}

// stressCampaignOn runs a mixed campaign plan through one AppManager on
// an explicit pilot (machine label + size) — the shared runner behind
// the mixed and oversubscribed tiers.
func stressCampaignOn(machine string, cores int, plan []StressMixedPipeline) (*Stress100kMixedResult, error) {
	v := vclock.NewVirtual()
	h, err := core.NewResourceHandle(machine, cores, 10000*time.Hour, core.Config{Clock: v})
	if err != nil {
		return nil, err
	}
	var camp *core.CampaignReport
	var runErr error
	v.Run(func() {
		if runErr = h.Allocate(); runErr != nil {
			return
		}
		camp, runErr = core.NewAppManager(h).Run(buildMixedPipelines(plan)...)
		if derr := h.Deallocate(); runErr == nil {
			runErr = derr
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("stress 100k mixed: %w", runErr)
	}
	// Like handle.Execute, fold the dealloc control time (spent after
	// Run returned) into the campaign's core overhead so this tier's
	// column is computed under the same rule as the single-stage tier.
	camp.Campaign.CoreOverhead = h.ControlOverhead()

	res := &Stress100kMixedResult{
		Plan:            plan,
		Machine:         machine,
		Cores:           cores,
		QueueWaitSec:    camp.Campaign.QueueWait.Seconds(),
		AgentStartupSec: camp.Campaign.AgentStartup.Seconds(),
		CoreOvhSec:      camp.Campaign.CoreOverhead.Seconds(),
	}
	row := func(name string, pp *StressMixedPipeline, rep *core.Report) Stress100kMixedRow {
		r := Stress100kMixedRow{
			Name:          name,
			Tasks:         rep.Tasks,
			TTCSec:        rep.TTC.Seconds(),
			ExecSec:       rep.ExecTime().Seconds(),
			PatternOvhSec: rep.PatternOverhead.Seconds(),
		}
		if pp != nil {
			r.Width, r.Depth, r.CoresPer = pp.Width, pp.Depth, pp.CoresPer
		}
		return r
	}
	for i := range plan {
		res.Pipelines = append(res.Pipelines, row(plan[i].Name, &plan[i], camp.Pipelines[i]))
	}
	res.Campaign = row("campaign", nil, camp.Campaign)
	return res, nil
}

// Table renders the campaign.
func (r *Stress100kMixedResult) Table() string {
	headers := []string{"pipeline", "width", "depth", "cores/task", "tasks",
		"ttc_s", "exec_s", "pattern_ovh_s"}
	var rows [][]string
	for _, w := range append(append([]Stress100kMixedRow(nil), r.Pipelines...), r.Campaign) {
		width, depth, cores := "-", "-", "-"
		if w.Width > 0 {
			width, depth, cores = di(w.Width), di(w.Depth), di(w.CoresPer)
		}
		rows = append(rows, []string{
			w.Name, width, depth, cores, di(w.Tasks),
			f1(w.TTCSec), f1(w.ExecSec), f1(w.PatternOvhSec),
		})
	}
	return table(headers, rows)
}

// Check asserts the mixed tier's golden shapes:
//
//   - exact accounting per pipeline and for the campaign: every planned
//     task ran, and each pipeline's pattern overhead is exactly its
//     task count times the client-side submission cost (pipelines
//     submit concurrently but each pays its own serialized cost);
//   - every stage of every pipeline fits one wave (that is the plan's
//     shape), so each pipeline's execution time is its depth in waves
//     of the per-task runtime plus bounded launcher stagger;
//   - the queue wait is dominated by the per-node backfill component,
//     as in the single-stage tier (one shared pilot);
//   - concurrency: the campaign TTC equals the slowest pipeline's TTC
//     and is strictly less than the pipelines' serialized sum — the
//     heterogeneous pipelines genuinely overlapped on one allocation.
func (r *Stress100kMixedResult) Check() error {
	if len(r.Pipelines) != len(r.Plan) || len(r.Plan) < 2 {
		return fmt.Errorf("stress 100k mixed: %d pipeline rows for %d plan entries",
			len(r.Pipelines), len(r.Plan))
	}
	m, err := cluster.Lookup(r.Machine)
	if err != nil {
		return err
	}
	perUnit := pilot.DefaultConfig().UMSubmitPerUnit.Seconds()
	peak := 0
	wantTotal := 0
	var maxTTC, sumTTC float64
	for i, pp := range r.Plan {
		w := r.Pipelines[i]
		wantTasks := pp.Width * pp.Depth
		wantTotal += wantTasks
		peak += pp.Width * pp.CoresPer
		if w.Tasks != wantTasks {
			return fmt.Errorf("stress 100k mixed: pipeline %s ran %d tasks, want %d", w.Name, w.Tasks, wantTasks)
		}
		wantOvh := float64(w.Tasks) * perUnit
		if math.Abs(w.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
			return fmt.Errorf("stress 100k mixed: pipeline %s pattern overhead %.3fs, want exactly %.3fs",
				w.Name, w.PatternOvhSec, wantOvh)
		}
		wantExec := float64(pp.Depth) * pp.taskSeconds()
		if w.ExecSec < wantExec || w.ExecSec > wantExec+5*float64(pp.Depth) {
			return fmt.Errorf("stress 100k mixed: pipeline %s exec %.1fs, want ~%.1fs (%d one-wave stages)",
				w.Name, w.ExecSec, wantExec, pp.Depth)
		}
		if w.TTCSec < w.ExecSec+w.PatternOvhSec {
			return fmt.Errorf("stress 100k mixed: pipeline %s TTC %.1fs < exec %.1fs + overhead %.1fs",
				w.Name, w.TTCSec, w.ExecSec, w.PatternOvhSec)
		}
		if w.TTCSec > maxTTC {
			maxTTC = w.TTCSec
		}
		sumTTC += w.TTCSec
	}
	if peak > r.Cores {
		return fmt.Errorf("stress 100k mixed: plan's peak demand %d exceeds the %d-core pilot (stages would split into waves)",
			peak, r.Cores)
	}
	c := r.Campaign
	if c.Tasks != wantTotal {
		return fmt.Errorf("stress 100k mixed: campaign ran %d tasks, want %d", c.Tasks, wantTotal)
	}
	wantOvh := float64(wantTotal) * perUnit
	if math.Abs(c.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
		return fmt.Errorf("stress 100k mixed: campaign pattern overhead %.3fs, want exactly %.3fs",
			c.PatternOvhSec, wantOvh)
	}
	if math.Abs(c.TTCSec-maxTTC) > 1e-9 {
		return fmt.Errorf("stress 100k mixed: campaign TTC %.3fs != slowest pipeline %.3fs", c.TTCSec, maxTTC)
	}
	if c.TTCSec >= sumTTC {
		return fmt.Errorf("stress 100k mixed: campaign TTC %.1fs not overlapping pipelines (serialized sum %.1fs)",
			c.TTCSec, sumTTC)
	}
	// Queue wait: the shared pilot's full model delay plus at most 1s of
	// control latency, with the per-node component dominating.
	nodes := m.NodesFor(r.Cores)
	baseWait := m.QueueWaitBase.Seconds()
	perNodeWait := float64(nodes) * m.QueueWaitPerNode.Seconds()
	if r.QueueWaitSec < baseWait+perNodeWait || r.QueueWaitSec > baseWait+perNodeWait+1 {
		return fmt.Errorf("stress 100k mixed: queue wait %.1fs, want ~%.1fs (base %.0fs + %d nodes)",
			r.QueueWaitSec, baseWait+perNodeWait, baseWait, nodes)
	}
	if perNodeWait < 0.9*r.QueueWaitSec {
		return fmt.Errorf("stress 100k mixed: per-node wait %.1fs not dominating queue wait %.1fs",
			perNodeWait, r.QueueWaitSec)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Persistent traces

// ProfileTrace runs the unit-throughput workload once and writes the
// session's full event trace to w in the versioned binary dump format
// (profile.WriteTo). It returns the event count and bytes written.
func ProfileTrace(w io.Writer) (events int, bytes int64, err error) {
	h, err := runThroughputWorkload()
	if err != nil {
		return 0, 0, err
	}
	prof := h.Session().Prof
	n, err := prof.WriteTo(w)
	return prof.EventCount(), n, err
}
