package workload

import (
	"fmt"
	"math"
	"time"

	"entk/internal/cluster"
	"entk/internal/core"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// The fault tier is the robustness PR's acceptance scenario: the same
// ~100k-task ensemble campaign run twice on a two-pilot set — once
// clean, once with one pilot killed mid-wave and its in-flight units
// rebound onto the survivor — and the recovery overhead read off as the
// TTC difference. Exact accounting must hold in both runs: rebinding
// returns units instead of failing them, so the faulted campaign
// completes every task with zero retries, just later.

// FaultTierPlan describes one fault-recovery benchmark: a two-pilot set
// (identical pilots on Machine) running a single Width x Depth ensemble
// of 1-core tasks, with pilot 1 killed ExecOffset into wave 1's
// execution.
type FaultTierPlan struct {
	Machine    string
	PilotCores int
	Width      int // tasks per stage
	Depth      int // stages
	Seconds    float64
	// ExecOffset is how far into wave-1 execution the kill lands; it must
	// stay inside (0, Seconds) for the fault to interrupt running units.
	ExecOffset time.Duration
}

// FaultTierDefault is the full tier: 98304 tasks on two 32768-core
// pilots of the 100k-tier machine, the doomed pilot carrying ~half the
// first wave when it dies.
var FaultTierDefault = FaultTierPlan{
	Machine: Stress100kMachine, PilotCores: 32768,
	Width: 49152, Depth: 2, Seconds: 30,
	ExecOffset: 15 * time.Second,
}

// FaultTierSmoke is the shape-identical CI smoke plan: 3072 tasks on two
// 1024-core pilots of the 10k-tier machine.
var FaultTierSmoke = FaultTierPlan{
	Machine: StressMachine, PilotCores: 1024,
	Width: 1536, Depth: 2, Seconds: 30,
	ExecOffset: 15 * time.Second,
}

// Tasks returns the planned task count.
func (p *FaultTierPlan) Tasks() int { return p.Width * p.Depth }

// killInstant derives the fault instant from the cluster model: pilot
// activation (queue wait + agent boot) plus the bulk wave's client-side
// submission cost plus ExecOffset, nudged by 1ns off any model-derived
// event instant (same-instant wake order is engine-dependent).
func (p *FaultTierPlan) killInstant() (time.Duration, error) {
	m, err := cluster.Lookup(p.Machine)
	if err != nil {
		return 0, err
	}
	nodes := (p.PilotCores + m.CoresPerNode - 1) / m.CoresPerNode
	activation := m.QueueWaitBase + time.Duration(nodes)*m.QueueWaitPerNode + m.AgentBootTime
	submit := time.Duration(p.Width) * pilot.DefaultConfig().UMSubmitPerUnit
	return activation + submit + p.ExecOffset + time.Nanosecond, nil
}

// FaultRunRow is one run's (clean or faulted) campaign outcome.
type FaultRunRow struct {
	Name    string  `json:"name"`
	Tasks   int     `json:"tasks"`
	Retries int     `json:"retries"`
	TTCSec  float64 `json:"ttc_s"`
	WallMS  float64 `json:"wall_ms"`
	// PilotUnits is units per pilot, set order (doomed pilot last).
	PilotUnits []int `json:"pilot_units"`
}

// FaultTierResult pairs the clean and faulted runs of one plan.
type FaultTierResult struct {
	Plan      FaultTierPlan
	KillAtSec float64
	Clean     FaultRunRow
	Faulted   FaultRunRow
	// RecoveryOverheadSec is the faulted run's TTC minus the clean run's:
	// the price of losing half the fleet mid-wave.
	RecoveryOverheadSec float64
}

// FaultTier runs the fault-recovery pair on the handoff engine.
func FaultTier(p *FaultTierPlan) (*FaultTierResult, error) {
	return FaultTierOn(p, vclock.EngineHandoff)
}

// FaultTierOn is FaultTier on an explicit vclock engine.
func FaultTierOn(p *FaultTierPlan, eng vclock.Engine) (*FaultTierResult, error) {
	if p == nil {
		p = &FaultTierDefault
	}
	killAt, err := p.killInstant()
	if err != nil {
		return nil, err
	}

	run := func(name string, faults *pilot.FaultPlan) (FaultRunRow, error) {
		v := vclock.NewVirtualEngine(eng)
		rcfg := pilot.DefaultConfig()
		rcfg.ProfLayout = DefaultProfLayout
		rcfg.PendingRef = DefaultPendingRef
		rs, err := core.NewResourceSet([]core.PilotSpec{
			{Resource: p.Machine, Cores: p.PilotCores, Walltime: 10000 * time.Hour},
			{Resource: p.Machine, Cores: p.PilotCores, Walltime: 10000 * time.Hour},
		}, core.Config{Clock: v, Runtime: rcfg})
		if err != nil {
			return FaultRunRow{}, err
		}
		rs.Rebind = true
		rs.Faults = faults
		pls := buildMixedPipelines([]StressMixedPipeline{{
			Name: "ensemble", Width: p.Width, Depth: p.Depth, CoresPer: 1, Seconds: p.Seconds,
		}})
		t0 := time.Now()
		var camp *core.CampaignReport
		var runErr error
		v.Run(func() {
			if runErr = rs.Allocate(); runErr != nil {
				return
			}
			camp, runErr = core.NewAppManager(rs).Run(pls...)
			if derr := rs.Deallocate(); runErr == nil {
				runErr = derr
			}
		})
		if runErr != nil {
			return FaultRunRow{}, fmt.Errorf("fault tier %s run: %w", name, runErr)
		}
		row := FaultRunRow{
			Name:    name,
			Tasks:   camp.Campaign.Tasks,
			Retries: camp.Campaign.Retries,
			TTCSec:  camp.Campaign.TTC.Seconds(),
			WallMS:  float64(time.Since(t0)) / float64(time.Millisecond),
		}
		for _, u := range camp.Pilots {
			row.PilotUnits = append(row.PilotUnits, u.Units)
		}
		return row, nil
	}

	clean, err := run("clean", nil)
	if err != nil {
		return nil, err
	}
	faulted, err := run("faulted", &pilot.FaultPlan{Faults: []pilot.Fault{
		{At: killAt, Pilot: 1, Kind: pilot.FaultKillPilot},
	}})
	if err != nil {
		return nil, err
	}
	return &FaultTierResult{
		Plan:                *p,
		KillAtSec:           killAt.Seconds(),
		Clean:               clean,
		Faulted:             faulted,
		RecoveryOverheadSec: faulted.TTCSec - clean.TTCSec,
	}, nil
}

// Table renders the clean/faulted pair and the recovery overhead.
func (r *FaultTierResult) Table() string {
	headers := []string{"run", "tasks", "retries", "ttc_s", "pilot0_units", "pilot1_units", "wall_ms"}
	var rows [][]string
	for _, w := range []FaultRunRow{r.Clean, r.Faulted} {
		p0, p1 := "-", "-"
		if len(w.PilotUnits) == 2 {
			p0, p1 = di(w.PilotUnits[0]), di(w.PilotUnits[1])
		}
		rows = append(rows, []string{
			w.Name, di(w.Tasks), di(w.Retries), f1(w.TTCSec), p0, p1, f1(w.WallMS),
		})
	}
	out := table(headers, rows)
	out += fmt.Sprintf("pilot 1 killed at %.1fs (mid wave 1); recovery overhead %.1fs\n",
		r.KillAtSec, r.RecoveryOverheadSec)
	return out
}

// Check asserts the tier's golden shapes:
//
//   - exact accounting in both runs: every planned task completed, with
//     zero retries — rebinding returns displaced units, it never burns
//     the retry budget;
//   - the work moved: in the faulted run every unit is still counted
//     exactly once across the pilot rows, the survivor carried the
//     majority, and the doomed pilot ran strictly less than its clean
//     share;
//   - the recovery overhead is one to two extra waves of the task
//     runtime (the displaced re-execution plus the survivor running
//     later stages alone), never free and never runaway.
func (r *FaultTierResult) Check() error {
	want := r.Plan.Tasks()
	for _, w := range []FaultRunRow{r.Clean, r.Faulted} {
		if w.Tasks != want || w.Retries != 0 {
			return fmt.Errorf("fault tier: %s run tasks/retries = %d/%d, want %d/0",
				w.Name, w.Tasks, w.Retries, want)
		}
		if len(w.PilotUnits) != 2 {
			return fmt.Errorf("fault tier: %s run has %d pilot rows, want 2", w.Name, len(w.PilotUnits))
		}
		if sum := w.PilotUnits[0] + w.PilotUnits[1]; sum != want {
			return fmt.Errorf("fault tier: %s run pilot units %d+%d = %d, want %d (units lost or double-counted)",
				w.Name, w.PilotUnits[0], w.PilotUnits[1], sum, want)
		}
	}
	if r.Faulted.PilotUnits[0] <= r.Faulted.PilotUnits[1] {
		return fmt.Errorf("fault tier: survivor ran %d units vs doomed pilot's %d — rebinding did not shift the work",
			r.Faulted.PilotUnits[0], r.Faulted.PilotUnits[1])
	}
	if r.Faulted.PilotUnits[1] >= r.Clean.PilotUnits[1] {
		return fmt.Errorf("fault tier: doomed pilot ran %d units, clean share was %d — the kill changed nothing",
			r.Faulted.PilotUnits[1], r.Clean.PilotUnits[1])
	}
	const slack = 10.0
	lo, hi := r.Plan.Seconds, 2*r.Plan.Seconds+slack
	if r.RecoveryOverheadSec < lo || r.RecoveryOverheadSec > hi {
		return fmt.Errorf("fault tier: recovery overhead %.1fs outside [%.0fs, %.0fs] (clean %.1fs, faulted %.1fs)",
			r.RecoveryOverheadSec, lo, hi, r.Clean.TTCSec, r.Faulted.TTCSec)
	}
	if math.Abs(r.Faulted.TTCSec-(r.Clean.TTCSec+r.RecoveryOverheadSec)) > 1e-9 {
		return fmt.Errorf("fault tier: overhead column inconsistent with the TTCs")
	}
	return nil
}
