package workload

import (
	"fmt"
	"math"
	"strings"
	"time"

	"entk/internal/core"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// The multi-pilot tier is the resource-binding redesign's acceptance
// scenario: one heterogeneous campaign — 1-core pipelines and a
// 4-core-MPI pipeline — running through one AppManager on an
// entk.ResourceSet of two pilots on different machines, split by
// tag-affinity placement (the MPI tasks land on the 16-core-node
// machine provisioned for them). The campaign is written once against
// the graph API; where each task runs is decided at dispatch time, and
// the campaign report's per-pilot utilization columns show the split.

// Multi-pilot campaign shape: a "cpu" pilot on Comet carries the
// single-core ensembles, an "mpi" pilot on Stampede (16-core nodes)
// carries the 4-core MPI ensemble.
const (
	MultiPilotCPUMachine = "xsede.comet"
	MultiPilotCPUCores   = 1536
	MultiPilotMPIMachine = "xsede.stampede"
	MultiPilotMPICores   = 2048
)

// MultiPilotPlan is the default campaign: two tagged single-core
// pipelines and one tagged 4-core-MPI pipeline, 5120 tasks total.
var MultiPilotPlan = []StressMixedPipeline{
	{Name: "serial-a", Width: 1024, Depth: 2, CoresPer: 1, Tags: []string{"cpu"}},
	{Name: "serial-b", Width: 512, Depth: 2, CoresPer: 1, Tags: []string{"cpu"}},
	{Name: "mpi", Width: 512, Depth: 4, CoresPer: 4, Tags: []string{"mpi"}},
}

// MultiPilotUtilRow is one pilot's utilization column set.
type MultiPilotUtilRow struct {
	Pilot       int     `json:"pilot"`
	Resource    string  `json:"resource"`
	Cores       int     `json:"cores"`
	Tags        string  `json:"tags"`
	Units       int     `json:"units"`
	CoreBusySec float64 `json:"core_busy_s"`
	Utilization float64 `json:"utilization"`
}

// MultiPilotResult holds the two-machine campaign outcome: the familiar
// mixed-tier rows plus one utilization row per pilot.
type MultiPilotResult struct {
	Plan            []StressMixedPipeline
	Placement       string
	Campaign        Stress100kMixedRow
	Pipelines       []Stress100kMixedRow
	Pilots          []MultiPilotUtilRow
	QueueWaitSec    float64
	AgentStartupSec float64
	CoreOvhSec      float64
}

// MultiPilotCampaign runs the two-machine campaign (nil plan:
// MultiPilotPlan).
func MultiPilotCampaign(plan []StressMixedPipeline) (*MultiPilotResult, error) {
	if plan == nil {
		plan = MultiPilotPlan
	}
	v := vclock.NewVirtual()
	rs, err := core.NewResourceSet([]core.PilotSpec{
		{Resource: MultiPilotCPUMachine, Cores: MultiPilotCPUCores, Walltime: 10000 * time.Hour, Tags: []string{"cpu"}},
		{Resource: MultiPilotMPIMachine, Cores: MultiPilotMPICores, Walltime: 10000 * time.Hour, Tags: []string{"mpi"}},
	}, core.Config{Clock: v})
	if err != nil {
		return nil, err
	}
	rs.Placement = pilot.PlaceTagAffinity(nil)

	var camp *core.CampaignReport
	var runErr error
	v.Run(func() {
		if runErr = rs.Allocate(); runErr != nil {
			return
		}
		camp, runErr = core.NewAppManager(rs).Run(buildMixedPipelines(plan)...)
		if derr := rs.Deallocate(); runErr == nil {
			runErr = derr
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("multipilot campaign: %w", runErr)
	}
	camp.Campaign.CoreOverhead = rs.ControlOverhead()

	res := &MultiPilotResult{
		Plan:            plan,
		Placement:       rs.Placement.Name(),
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
	for _, u := range camp.Pilots {
		res.Pilots = append(res.Pilots, MultiPilotUtilRow{
			Pilot:       u.Pilot,
			Resource:    u.Resource,
			Cores:       u.Cores,
			Tags:        strings.Join(u.Tags, ","),
			Units:       u.Units,
			CoreBusySec: u.CoreBusy.Seconds(),
			Utilization: u.Utilization,
		})
	}
	return res, nil
}

// Table renders the campaign rows and the per-pilot utilization
// columns.
func (r *MultiPilotResult) Table() string {
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
	out := table(headers, rows)

	uheaders := []string{"pilot", "resource", "tags", "cores", "units", "core_busy_s", "utilization"}
	var urows [][]string
	for _, u := range r.Pilots {
		urows = append(urows, []string{
			di(u.Pilot), u.Resource, u.Tags, di(u.Cores), di(u.Units),
			f1(u.CoreBusySec), fmt.Sprintf("%.3f", u.Utilization),
		})
	}
	return out + table(uheaders, urows)
}

// Check asserts the multi-pilot campaign's golden shapes:
//
//   - exact accounting: every planned task ran, and each pipeline's
//     pattern overhead is exactly its task count times the client-side
//     submission cost (the shared batcher changes wall cost, not the
//     simulated submission cost);
//   - exact tag routing: every task of a tagged pipeline executed on
//     the pilot carrying its tag — the per-pilot Units columns equal
//     the per-tag task sums, and both pilots were genuinely used;
//   - per-pilot utilization is consistent with the units each pilot ran
//     (core-busy equals the tagged tasks' core-seconds exactly — no
//     retries in this tier);
//   - concurrency: the campaign TTC equals the slowest pipeline's TTC
//     and beats the serialized sum, across machines.
func (r *MultiPilotResult) Check() error {
	if len(r.Pipelines) != len(r.Plan) || len(r.Pilots) != 2 {
		return fmt.Errorf("multipilot: %d pipeline rows for %d plan entries, %d pilot rows",
			len(r.Pipelines), len(r.Plan), len(r.Pilots))
	}
	perUnit := pilot.DefaultConfig().UMSubmitPerUnit.Seconds()
	wantTotal := 0
	tagUnits := map[string]int{}
	tagCoreSec := map[string]float64{}
	var maxTTC, sumTTC float64
	for i, pp := range r.Plan {
		w := r.Pipelines[i]
		wantTasks := pp.Width * pp.Depth
		wantTotal += wantTasks
		for _, tag := range pp.Tags {
			tagUnits[tag] += wantTasks
			tagCoreSec[tag] += float64(wantTasks*pp.CoresPer) * pp.taskSeconds()
		}
		if w.Tasks != wantTasks {
			return fmt.Errorf("multipilot: pipeline %s ran %d tasks, want %d", w.Name, w.Tasks, wantTasks)
		}
		wantOvh := float64(w.Tasks) * perUnit
		if math.Abs(w.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
			return fmt.Errorf("multipilot: pipeline %s pattern overhead %.3fs, want exactly %.3fs",
				w.Name, w.PatternOvhSec, wantOvh)
		}
		if w.TTCSec > maxTTC {
			maxTTC = w.TTCSec
		}
		sumTTC += w.TTCSec
	}
	if r.Campaign.Tasks != wantTotal {
		return fmt.Errorf("multipilot: campaign ran %d tasks, want %d", r.Campaign.Tasks, wantTotal)
	}
	for _, u := range r.Pilots {
		want, ok := tagUnits[u.Tags]
		if !ok {
			return fmt.Errorf("multipilot: pilot %d (%s) carries tag %q no pipeline requested",
				u.Pilot, u.Resource, u.Tags)
		}
		if u.Units != want {
			return fmt.Errorf("multipilot: pilot %d (%s, tag %q) executed %d units, want %d — tag routing leaked",
				u.Pilot, u.Resource, u.Tags, u.Units, want)
		}
		wantBusy := tagCoreSec[u.Tags]
		if math.Abs(u.CoreBusySec-wantBusy) > 1e-6*wantBusy+1e-9 {
			return fmt.Errorf("multipilot: pilot %d core-busy %.1fs, want exactly %.1fs",
				u.Pilot, u.CoreBusySec, wantBusy)
		}
		if u.Units == 0 || u.Utilization <= 0 {
			return fmt.Errorf("multipilot: pilot %d (%s) unused (units=%d, util=%.3f)",
				u.Pilot, u.Resource, u.Units, u.Utilization)
		}
		if u.Utilization > 1.0 {
			return fmt.Errorf("multipilot: pilot %d utilization %.3f > 1", u.Pilot, u.Utilization)
		}
	}
	if math.Abs(r.Campaign.TTCSec-maxTTC) > 1e-9 {
		return fmt.Errorf("multipilot: campaign TTC %.3fs != slowest pipeline %.3fs", r.Campaign.TTCSec, maxTTC)
	}
	if r.Campaign.TTCSec >= sumTTC {
		return fmt.Errorf("multipilot: campaign TTC %.1fs not overlapping pipelines (serialized sum %.1fs)",
			r.Campaign.TTCSec, sumTTC)
	}
	return nil
}
