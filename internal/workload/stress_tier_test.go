package workload

import (
	"fmt"
	"math"
	"time"

	"entk/internal/cluster"
	"entk/internal/core"
	"entk/internal/pilot"
	"entk/internal/stats"
	"entk/internal/vclock"
)

// The stress tier pushes the toolkit past the paper's largest experiments
// (Figure 8 stops at 4096 tasks): 10k-member ensembles on a synthetic
// 8192-core machine (sim.stress8k). These sweeps are the workload behind
// the indexed agent scheduler — the seed's rescan scheduler made them the
// slowest runs in the tree — and double as correctness checks that the
// runtime keeps exact accounting when the workload no longer fits the
// pilot in one wave. Every column is a simulated quantity, pinned by
// testdata/sim_columns.golden.json; the wall-clock cost of these
// workloads is bench/'s to measure.

// StressMachine is the stress tier's resource label.
const StressMachine = "sim.stress8k"

// StressCores is the pilot size used by the stress tier.
const StressCores = 8192

// The unit-throughput workload ProfileTrace dumps: throughputUnits
// one-stage pipelines of one-second sleeps through a
// throughputCores-core Stampede pilot.
const (
	throughputUnits = 512
	throughputCores = 256
)

// runThroughputWorkload executes the unit-throughput workload and
// returns its finished handle (the session behind it stays queryable,
// which is how ProfileTrace dumps the run's events).
func runThroughputWorkload() (*core.ResourceHandle, error) {
	v := vclock.NewVirtual()
	h, err := core.NewResourceHandle("xsede.stampede", throughputCores, 1000*time.Hour,
		core.Config{Clock: v})
	if err != nil {
		return nil, err
	}
	// One kernel instance for every task: bind never mutates the kernel.
	kernel := &core.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 1}}
	var runErr error
	v.Run(func() {
		_, runErr = h.Execute(&core.EnsembleOfPipelines{
			Pipelines: throughputUnits,
			Stages:    1,
			StageKernel: func(int, int) *core.Kernel {
				return kernel
			},
		})
	})
	if runErr != nil {
		return nil, runErr
	}
	return h, nil
}

// Defaults of the stress sweeps.
var (
	// StressEESizes are EE ensemble sizes: replicas = cores up to the
	// full machine, then an oversubscribed 10240-replica point that must
	// run in two waves.
	StressEESizes = []int{1280, 2560, 5120, 8192, 10240}
	// StressEoPSizes are EoP ensemble widths, up to 10240 pipelines.
	StressEoPSizes = []int{2560, 5120, 10240}
	// stressEoPStages is the pipeline depth of the EoP stress sweep.
	stressEoPStages = 2
	// stressEoPSeconds is the per-task runtime of the EoP stress sweep.
	stressEoPSeconds = 30.0
)

// StressEEPoint is one EE stress configuration.
type StressEEPoint struct {
	Replicas    int
	Cores       int
	SimSec      float64
	ExchangeSec float64
	TTCSec      float64
}

// StressEEResult holds the EE weak-scaling stress sweep.
type StressEEResult struct {
	Rows []StressEEPoint
}

// StressEE runs the EE weak-scaling stress sweep: replicas = cores up to
// the whole 8192-core machine, plus a final oversubscribed point with
// more replicas than cores — the pilot capability (decoupling workload
// size from resource size) at 10k scale.
func StressEE(sizes []int) (*StressEEResult, error) {
	if sizes == nil {
		sizes = StressEESizes
	}
	res := &StressEEResult{}
	for _, n := range sizes {
		cores := n
		if cores > StressCores {
			cores = StressCores
		}
		// Shared kernel instances (bind never mutates them): at 10k scale
		// the per-task kernel+params allocation is measurable GC pressure.
		simKernel := &core.Kernel{
			Name:   "md.amber",
			Params: map[string]float64{"atoms": alanineAtoms, "ps": eePS},
		}
		exchKernel := &core.Kernel{
			Name:   "md.remd_exchange",
			Params: map[string]float64{"replicas": float64(n)},
		}
		rep, err := runOnFreshClock(StressMachine, cores, func() core.Pattern {
			return &core.EnsembleExchange{
				Replicas: n,
				Cycles:   1,
				SimulationKernel: func(cycle, r int) *core.Kernel {
					return simKernel
				},
				ExchangeKernel: func(cycle int) *core.Kernel {
					return exchKernel
				},
			}
		})
		if err != nil {
			return nil, fmt.Errorf("stress ee n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, StressEEPoint{
			Replicas:    n,
			Cores:       cores,
			SimSec:      rep.Phase("simulation").Span.Seconds(),
			ExchangeSec: rep.Phase("exchange").Span.Seconds(),
			TTCSec:      rep.TTC.Seconds(),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *StressEEResult) Table() string {
	headers := []string{"replicas", "cores", "sim_s", "exchange_s", "ttc_s"}
	var rows [][]string
	for _, w := range r.Rows {
		rows = append(rows, []string{
			di(w.Replicas), di(w.Cores), f1(w.SimSec), f2(w.ExchangeSec), f1(w.TTCSec),
		})
	}
	return table(headers, rows)
}

// Check asserts the stress-tier shape: over the weak-scaling prefix
// (replicas = cores) the simulation span stays flat while the exchange
// grows linearly with replicas (Figure 6's behaviour, extended to 8192);
// the oversubscribed tail point must take an extra wave — between 1.5x
// and 3x the weak-prefix simulation span — and still complete exactly.
func (r *StressEEResult) Check() error {
	var weakSim, reps, exch []float64
	var over []StressEEPoint
	for _, w := range r.Rows {
		reps = append(reps, float64(w.Replicas))
		exch = append(exch, w.ExchangeSec)
		if w.Replicas == w.Cores {
			weakSim = append(weakSim, w.SimSec)
		} else {
			over = append(over, w)
		}
	}
	if len(weakSim) < 2 {
		return fmt.Errorf("stress ee: need at least two weak-scaling rows, got %d", len(weakSim))
	}
	if spread, err := stats.RelSpread(weakSim); err != nil || spread > 0.30 {
		return fmt.Errorf("stress ee: weak-prefix simulation time not flat: spread=%.3f err=%v", spread, err)
	}
	slope, _, r2, err := stats.LinearFit(reps, exch)
	if err != nil {
		return err
	}
	if slope <= 0 || r2 < 0.99 {
		return fmt.Errorf("stress ee: exchange not linear in replicas (slope=%.5f r2=%.4f)", slope, r2)
	}
	base := stats.Mean(weakSim)
	for _, w := range over {
		waves := float64((w.Replicas + w.Cores - 1) / w.Cores)
		if w.SimSec < (waves-0.5)*base || w.SimSec > (waves+1.0)*base {
			return fmt.Errorf("stress ee: oversubscribed %d-replica sim span %.1fs, want ~%.0f waves of %.1fs",
				w.Replicas, w.SimSec, waves, base)
		}
	}
	return nil
}

// StressEoPPoint is one EoP stress configuration.
type StressEoPPoint struct {
	Pipelines     int
	Stages        int
	Tasks         int
	TTCSec        float64
	ExecSec       float64
	PatternOvhSec float64
}

// StressEoPResult holds the EoP stress sweep.
type StressEoPResult struct {
	Rows []StressEoPPoint
}

// StressEoP runs the EoP stress sweep: up to 10240 two-stage pipelines on
// the 8192-core machine, submitted phase-batched (BulkStages) — each
// stage is one bulk submission of up to 10240 units, the hardest single
// event the agent scheduler sees anywhere in the tree.
func StressEoP(sizes []int) (*StressEoPResult, error) {
	if sizes == nil {
		sizes = StressEoPSizes
	}
	res := &StressEoPResult{}
	for _, n := range sizes {
		// One kernel for all tasks (bind never mutates it): see StressEE.
		kernel := &core.Kernel{
			Name:   "misc.sleep",
			Params: map[string]float64{"seconds": stressEoPSeconds},
		}
		rep, err := runOnFreshClock(StressMachine, StressCores, func() core.Pattern {
			return &core.EnsembleOfPipelines{
				Pipelines:  n,
				Stages:     stressEoPStages,
				BulkStages: true,
				StageKernel: func(stage, pipe int) *core.Kernel {
					return kernel
				},
			}
		})
		if err != nil {
			return nil, fmt.Errorf("stress eop n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, StressEoPPoint{
			Pipelines:     n,
			Stages:        stressEoPStages,
			Tasks:         rep.Tasks,
			TTCSec:        rep.TTC.Seconds(),
			ExecSec:       rep.ExecTime().Seconds(),
			PatternOvhSec: rep.PatternOverhead.Seconds(),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *StressEoPResult) Table() string {
	headers := []string{"pipelines", "stages", "tasks", "ttc_s", "exec_s", "pattern_ovh_s"}
	var rows [][]string
	for _, w := range r.Rows {
		rows = append(rows, []string{
			di(w.Pipelines), di(w.Stages), di(w.Tasks),
			f1(w.TTCSec), f1(w.ExecSec), f1(w.PatternOvhSec),
		})
	}
	return table(headers, rows)
}

// ---------------------------------------------------------------------------
// 100k tier

// The 100k tier is the columnar profiler's payoff workload: a 10x step
// past the 10k tier, opened by cutting the profiler's per-event GC-scanned
// footprint from two string headers (~40 B) to a 16-byte pointer-free
// record. Tasks are bulk-submitted single-stage ensembles on a synthetic
// 65536-core machine, and each row records the full TTC decomposition so
// the tier's golden checks can pin every component, not just throughput.

// Stress100kMachine is the 100k tier's resource label.
const Stress100kMachine = "sim.stress64k"

// Stress100kCores is the pilot size used by the 100k tier.
const Stress100kCores = 65536

var (
	// Stress100kSizes are the tier's ensemble widths (single-stage, so
	// tasks = pipelines): half machine, full machine, and the
	// oversubscribed 102400-task point that must run in two waves.
	Stress100kSizes = []int{32768, 65536, 102400}
	// stress100kSeconds is the per-task runtime of the 100k tier.
	stress100kSeconds = 30.0
)

// Stress100kPoint is one 100k-tier configuration with its full TTC
// decomposition.
type Stress100kPoint struct {
	Pipelines       int
	Tasks           int
	TTCSec          float64
	ExecSec         float64
	PatternOvhSec   float64
	QueueWaitSec    float64
	AgentStartupSec float64
	CoreOvhSec      float64
}

// Stress100kResult holds the 100k-task stress sweep.
type Stress100kResult struct {
	Rows []Stress100kPoint
}

// Stress100k runs the 100k-task stress sweep.
func Stress100k(sizes []int) (*Stress100kResult, error) {
	if sizes == nil {
		sizes = Stress100kSizes
	}
	res := &Stress100kResult{}
	for _, n := range sizes {
		// One kernel for all tasks (bind never mutates it): see StressEE.
		kernel := &core.Kernel{
			Name:   "misc.sleep",
			Params: map[string]float64{"seconds": stress100kSeconds},
		}
		rep, err := runOnFreshClock(Stress100kMachine, Stress100kCores, func() core.Pattern {
			return &core.EnsembleOfPipelines{
				Pipelines:  n,
				Stages:     1,
				BulkStages: true,
				StageKernel: func(stage, pipe int) *core.Kernel {
					return kernel
				},
			}
		})
		if err != nil {
			return nil, fmt.Errorf("stress 100k n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, Stress100kPoint{
			Pipelines:       n,
			Tasks:           rep.Tasks,
			TTCSec:          rep.TTC.Seconds(),
			ExecSec:         rep.ExecTime().Seconds(),
			PatternOvhSec:   rep.PatternOverhead.Seconds(),
			QueueWaitSec:    rep.QueueWait.Seconds(),
			AgentStartupSec: rep.AgentStartup.Seconds(),
			CoreOvhSec:      rep.CoreOverhead.Seconds(),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *Stress100kResult) Table() string {
	headers := []string{"pipelines", "tasks", "ttc_s", "exec_s", "pattern_ovh_s",
		"queue_wait_s", "agent_boot_s", "core_ovh_s"}
	var rows [][]string
	for _, w := range r.Rows {
		rows = append(rows, []string{
			di(w.Pipelines), di(w.Tasks), f1(w.TTCSec), f1(w.ExecSec), f1(w.PatternOvhSec),
			f1(w.QueueWaitSec), f1(w.AgentStartupSec), f1(w.CoreOvhSec),
		})
	}
	return table(headers, rows)
}

// Check asserts the 100k tier's TTC-decomposition golden shapes:
//
//   - exact accounting: every task ran, no retries, no losses;
//   - the pattern overhead grows with the task count and is exactly the
//     client-side submission cost of every unit (tasks x UMSubmitPerUnit);
//   - the queue wait is dominated by the per-node backfill component of
//     the queue model (a 4096-node request waits on the whole machine
//     draining, not on the fixed base);
//   - the execution span is the expected number of waves of the per-task
//     runtime plus bounded launcher stagger;
//   - TTC (measured from pattern start, pilot already active) covers
//     execution and pattern overhead.
func (r *Stress100kResult) Check() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("stress 100k: no rows")
	}
	m := cluster.Stress64k
	perUnit := pilot.DefaultConfig().UMSubmitPerUnit.Seconds()
	nodes := m.NodesFor(Stress100kCores)
	baseWait := m.QueueWaitBase.Seconds()
	perNodeWait := float64(nodes) * m.QueueWaitPerNode.Seconds()
	prevOvh := 0.0
	for _, w := range r.Rows {
		if w.Tasks != w.Pipelines {
			return fmt.Errorf("stress 100k: %d pipelines produced %d tasks", w.Pipelines, w.Tasks)
		}
		wantOvh := float64(w.Tasks) * perUnit
		if math.Abs(w.PatternOvhSec-wantOvh) > 1e-6*wantOvh+1e-9 {
			return fmt.Errorf("stress 100k: %d tasks pattern overhead %.3fs, want exactly %.3fs",
				w.Tasks, w.PatternOvhSec, wantOvh)
		}
		if w.PatternOvhSec <= prevOvh {
			return fmt.Errorf("stress 100k: pattern overhead not growing with task count (%.3fs after %.3fs)",
				w.PatternOvhSec, prevOvh)
		}
		prevOvh = w.PatternOvhSec
		// Queue wait: the model's full delay plus at most 1s of control
		// latency (SAGA round trips), with the per-node component — the
		// whole-machine backfill wait — dominating.
		if w.QueueWaitSec < baseWait+perNodeWait || w.QueueWaitSec > baseWait+perNodeWait+1 {
			return fmt.Errorf("stress 100k: queue wait %.1fs, want ~%.1fs (base %.0fs + %d nodes)",
				w.QueueWaitSec, baseWait+perNodeWait, baseWait, nodes)
		}
		if perNodeWait < 0.9*w.QueueWaitSec {
			return fmt.Errorf("stress 100k: per-node wait %.1fs not dominating queue wait %.1fs",
				perNodeWait, w.QueueWaitSec)
		}
		waves := float64((w.Pipelines + Stress100kCores - 1) / Stress100kCores)
		wantExec := waves * stress100kSeconds
		if w.ExecSec < wantExec || w.ExecSec > wantExec+5 {
			return fmt.Errorf("stress 100k: %d tasks exec %.1fs, want ~%.1fs (%v waves)",
				w.Tasks, w.ExecSec, wantExec, waves)
		}
		if w.TTCSec < w.ExecSec+w.PatternOvhSec {
			return fmt.Errorf("stress 100k: TTC %.1fs < exec %.1fs + pattern overhead %.1fs",
				w.TTCSec, w.ExecSec, w.PatternOvhSec)
		}
	}
	return nil
}

// Check asserts exact accounting at 10k scale: every task ran (no
// retries, no losses), the pattern overhead is the client-side submission
// cost of every unit, and each stage's span is the expected number of
// waves of the per-task runtime (plus bounded launcher stagger).
func (r *StressEoPResult) Check() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("stress eop: no rows")
	}
	for _, w := range r.Rows {
		if w.Tasks != w.Pipelines*w.Stages {
			return fmt.Errorf("stress eop: %d pipelines x %d stages produced %d tasks",
				w.Pipelines, w.Stages, w.Tasks)
		}
		waves := float64((w.Pipelines + StressCores - 1) / StressCores)
		wantExec := waves * stressEoPSeconds * float64(w.Stages)
		// Launcher stagger bound: each wave pays at most
		// pipelines/launcherWidth launch latencies before the last task
		// starts; 5s of slack per stage is generous at these parameters.
		if w.ExecSec < wantExec || w.ExecSec > wantExec+5*float64(w.Stages) {
			return fmt.Errorf("stress eop: %d pipelines exec %.1fs, want ~%.1fs (%v waves/stage)",
				w.Pipelines, w.ExecSec, wantExec, waves)
		}
		if w.TTCSec < w.ExecSec+w.PatternOvhSec {
			return fmt.Errorf("stress eop: TTC %.1fs < exec %.1fs + pattern overhead %.1fs",
				w.TTCSec, w.ExecSec, w.PatternOvhSec)
		}
	}
	return nil
}
