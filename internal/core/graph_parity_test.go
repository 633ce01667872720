package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"entk/internal/vclock"
)

// This file is the graph-executor regression gate: the graph executor
// (patterns lowered to Task/Stage/Pipeline graphs) must be a
// representation change only. Every legacy pattern — EoP in all three
// submission modes, EE collective and pairwise, SAL with every adaptive
// hook, and Composite — is run on the seed pattern executor
// (executor_ref_test.go) and on the graph executor, and the
// reports must be bit-identical: same TTC, same phase spans, busy times
// and occurrence counts, same task and retry counts — or the lowering
// changed simulated behaviour, not just the execution model.

// graphParityWorkloads builds fresh pattern instances per run (hooks
// close over per-run state, so instances must not be shared between
// legs). Sizes are modest: the point is structural coverage — retries,
// branching, rendezvous, adaptive growth and pruning — not scale.
//
// Determinism constraint: the engine does not promise a wake order for
// processes contending at the same virtual instant, so bit-exact
// comparison is only meaningful for workloads invariant under
// same-instant reordering — a property of the reference path as much
// as of the graph path. Concretely: concurrently-submitting patterns
// (EoP default mode, pairwise EE) use pipelines that are identical to
// each other (durations may vary by stage, not by pipeline, and
// branching/retry classes would couple slot order to the timeline), and
// bulk waves are internally homogeneous (a member's launcher slot
// follows its place in the wave's placement order). Branching and retry coverage
// therefore lives in the sequentially-submitting modes — bulk EoP,
// streamed single-stage EoP, SAL — where wave membership is
// deterministic, and each wave varies durations only across waves.
var graphParityWorkloads = []struct {
	name  string
	cores int
	build func() Pattern
}{
	{"eop-default-multistage", 48, func() Pattern {
		return &EnsembleOfPipelines{
			Pipelines: 12,
			Stages:    3,
			StageKernel: func(stage, pipe int) *Kernel {
				// Identical pipelines; durations vary by stage only.
				return &Kernel{Name: "misc.sleep",
					Params: map[string]float64{"seconds": float64(1 + 2*stage)}}
			},
		}
	}},
	{"eop-single-stage-streamed", 48, func() Pattern {
		return &EnsembleOfPipelines{
			Pipelines: 96,
			Stages:    1,
			StageKernel: func(stage, pipe int) *Kernel {
				if pipe%17 == 0 {
					return nil
				}
				k := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 3}}
				if pipe == 31 {
					k.FailOn = func(attempt int) bool { return attempt < 1 }
					k.Retries = 1
				}
				return k
			},
		}
	}},
	{"eop-bulk-stages", 48, func() Pattern {
		return &EnsembleOfPipelines{
			Pipelines:  16,
			Stages:     3,
			BulkStages: true,
			StageKernel: func(stage, pipe int) *Kernel {
				if stage > 1 && pipe%4 == 0 {
					return nil // a quarter of the ensemble branches out
				}
				k := &Kernel{Name: "misc.sleep",
					Params: map[string]float64{"seconds": float64(2 * stage)}}
				if stage == 2 && pipe == 6 {
					k.FailOn = func(attempt int) bool { return attempt < 1 } // one retry
					k.Retries = 2
				}
				return k
			},
		}
	}},
	{"ee-collective-stopwhen", 32, func() Pattern {
		exchanged := 0
		return &EnsembleExchange{
			Replicas: 8,
			Cycles:   5,
			SimulationKernel: func(c, r int) *Kernel {
				// Uniform within a cycle's wave, varying across cycles.
				return &Kernel{Name: "misc.sleep",
					Params: map[string]float64{"seconds": float64(4 + c%3)}}
			},
			ExchangeKernel: func(c int) *Kernel {
				return &Kernel{Name: "md.remd_exchange", Params: map[string]float64{"replicas": 8}}
			},
			ExchangeLogic: func(c int) { exchanged++ },
			StopWhen:      func(c int) bool { return exchanged >= 3 }, // adaptive termination
		}
	}},
	{"ee-pairwise", 32, func() Pattern {
		// One pair over several cycles: with more pairs, the racy
		// submission-slot → pair assignment makes each pair's rendezvous
		// max vary run to run (on the reference path too), so only the
		// single-pair ladder is bit-exact. The wide pairwise case is
		// gated by TestGraphPairwiseInvariantParity below.
		return &EnsembleExchange{
			Replicas: 2,
			Cycles:   3,
			Mode:     PairwiseExchange,
			Partner:  func(c, r int) int { return 3 - r }, // always (1,2)
			SimulationKernel: func(c, r int) *Kernel {
				return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": float64(2 + c)}}
			},
			ExchangeKernel: func(c int) *Kernel {
				return &Kernel{Name: "md.remd_exchange", Params: map[string]float64{"replicas": 2}}
			},
		}
	}},
	{"sal-adaptive", 32, func() Pattern {
		widths := []int{3, 6, 2, 4}
		return &SimulationAnalysisLoop{
			Iterations:          4,
			Simulations:         1, // overridden per iteration
			Analyses:            2,
			AdaptiveSimulations: func(iter int) int { return widths[iter-1] },
			AdaptiveStop:        func(iter int) bool { return iter == 3 }, // prunes iteration 4
			PreLoop:             func() *Kernel { return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 1}} },
			SimulationKernel: func(it, i int) *Kernel {
				return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": float64(2 + it)}}
			},
			AnalysisKernel: func(it, i int) *Kernel {
				return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 2}}
			},
			PostLoop: func() *Kernel { return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 1}} },
		}
	}},
	{"composite", 32, func() Pattern {
		return &Composite{
			Name: "equilibrate-then-sample",
			Members: []Pattern{
				&EnsembleOfPipelines{
					Pipelines: 8,
					Stages:    2,
					StageKernel: func(stage, pipe int) *Kernel {
						return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 2}}
					},
				},
				&SimulationAnalysisLoop{
					Iterations:  2,
					Simulations: 6,
					Analyses:    1,
					SimulationKernel: func(int, int) *Kernel {
						return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 3}}
					},
					AnalysisKernel: func(int, int) *Kernel {
						return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 1}}
					},
				},
			},
		}
	}},
}

// runGraphParityLeg executes one workload on the graph executor, or on
// the seed pattern executor when ref is set.
func runGraphParityLeg(t *testing.T, build func() Pattern, ref bool, cores int) *Report {
	t.Helper()
	rep, err := runPattern(t, build, ref, cores)
	if err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	return rep
}

// runPattern executes one pattern on a fresh clock and Stampede pilot,
// on the seed pattern executor when ref is set.
func runPattern(t *testing.T, build func() Pattern, ref bool, cores int) (*Report, error) {
	v := vclock.NewVirtual()
	h, err := NewResourceHandle("xsede.stampede", cores, 1000*time.Hour, Config{Clock: v})
	if err != nil {
		return nil, err
	}
	var rep *Report
	run := func() {
		v.Run(func() {
			rep, err = h.Execute(build())
		})
	}
	if ref {
		withRefExecutor(t, run)
	} else {
		run()
	}
	return rep, err
}

// TestGraphReportParity runs every workload on the seed pattern executor
// and on the graph executor, requiring bit-identical reports.
func TestGraphReportParity(t *testing.T) {
	for _, w := range graphParityWorkloads {
		t.Run(w.name, func(t *testing.T) {
			graph := runGraphParityLeg(t, w.build, false, w.cores)
			// Guard against the vacuous pass: the workload must have run.
			if graph.Tasks == 0 || graph.TTC <= 0 {
				t.Fatalf("parity workload did not run: tasks=%d ttc=%v", graph.Tasks, graph.TTC)
			}
			if ref := runGraphParityLeg(t, w.build, true, w.cores); !reflect.DeepEqual(graph, ref) {
				t.Errorf("graph vs ref diverge:\ngraph:\n%v\nref:\n%v", graph, ref)
			}
		})
	}
}

// TestGraphPairwiseInvariantParity covers the wide pairwise-EE case the
// bit-exact table cannot: with several pairs, same-instant submission
// reordering shifts each pair's rendezvous (a property of the pattern's
// no-global-sync semantics, identical on both paths), so the comparison
// projects the report onto its reorder-invariant components — task,
// retry and occurrence counts, cumulative busy times, pattern overhead,
// and the handle-level components — zeroing the wall spans and TTC.
func TestGraphPairwiseInvariantParity(t *testing.T) {
	build := func() Pattern {
		var mu sync.Mutex
		pairs := 0
		return &EnsembleExchange{
			Replicas: 8,
			Cycles:   2,
			Mode:     PairwiseExchange,
			SimulationKernel: func(c, r int) *Kernel {
				return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 3}}
			},
			ExchangeKernel: func(c int) *Kernel {
				return &Kernel{Name: "md.remd_exchange", Params: map[string]float64{"replicas": 2}}
			},
			PairLogic: func(c, lo, hi int) { mu.Lock(); pairs++; mu.Unlock() },
		}
	}
	invariant := func(r *Report) *Report {
		c := *r
		c.TTC = 0
		c.Phases = append([]PhaseStat(nil), r.Phases...)
		for i := range c.Phases {
			c.Phases[i].Span = 0
		}
		return &c
	}
	base := invariant(runGraphParityLeg(t, build, false, 32))
	if base.Tasks != 8*2+4+3 { // sims + full cycle-1 pairing + cycle-2 pairing
		t.Fatalf("pairwise workload ran %d tasks", base.Tasks)
	}
	if ref := invariant(runGraphParityLeg(t, build, true, 32)); !reflect.DeepEqual(base, ref) {
		t.Errorf("invariant projection diverges:\ngraph:\n%v\nref:\n%v", base, ref)
	}
}

// TestGraphPairwiseFailureParity pins the failure semantics of pairwise
// EE on both executors: a replica whose simulation exhausts its retries
// abandons its current and future pairings, so its partner skips the
// exchange and finishes its remaining cycles — a PatternError, not a
// whole-run rendezvous deadlock. The comparison projects onto the
// reorder-invariant report columns (zeroed TTC and spans): the
// survivor's release time couples to the racy submission-slot order on
// both paths equally, so wall spans are not bit-stable here (see
// TestGraphPairwiseInvariantParity for the same constraint).
func TestGraphPairwiseFailureParity(t *testing.T) {
	build := func() Pattern {
		return &EnsembleExchange{
			Replicas: 2,
			Cycles:   3,
			Mode:     PairwiseExchange,
			Partner:  func(c, r int) int { return 3 - r }, // always (1,2)
			SimulationKernel: func(c, r int) *Kernel {
				k := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 3}}
				if r == 2 && c == 1 {
					k.FailOn = func(int) bool { return true } // replica 2 dies in cycle 1
				}
				return k
			},
			ExchangeKernel: func(c int) *Kernel {
				return &Kernel{Name: "md.remd_exchange", Params: map[string]float64{"replicas": 2}}
			},
		}
	}
	graph, gerr := runPattern(t, build, false, 16)
	ref, rerr := runPattern(t, build, true, 16)
	for name, err := range map[string]error{"graph": gerr, "ref": rerr} {
		var perr *PatternError
		if !errors.As(err, &perr) {
			t.Fatalf("%s path: err = %v, want *PatternError (deadlock fixed?)", name, err)
		}
	}
	// Replica 1 ran all 3 cycles, replica 2 none; no exchange ever ran.
	if sim := graph.Phase("simulation"); sim.Tasks != 3 {
		t.Errorf("surviving replica ran %d sims, want 3", sim.Tasks)
	}
	if exc := graph.Phase("exchange"); exc.Tasks != 0 || exc.Occurrences != 1 {
		t.Errorf("exchange phase = %+v, want 0 tasks (abandoned pairings)", exc)
	}
	invariant := func(r *Report) *Report {
		c := *r
		c.TTC = 0
		c.Phases = append([]PhaseStat(nil), r.Phases...)
		for i := range c.Phases {
			c.Phases[i].Span = 0
		}
		return &c
	}
	if !reflect.DeepEqual(invariant(graph), invariant(ref)) {
		t.Errorf("failure reports diverge:\ngraph:\n%v\nref:\n%v", graph, ref)
	}
}

// TestGraphRetryParity pins retry accounting across the two executors:
// both count the same resubmissions and surface the same PatternError
// once budgets are exhausted.
func TestGraphRetryParity(t *testing.T) {
	build := func() Pattern {
		return &EnsembleOfPipelines{
			Pipelines: 4,
			Stages:    1,
			StageKernel: func(stage, pipe int) *Kernel {
				k := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 1}}
				if pipe == 2 {
					k.FailOn = func(attempt int) bool { return attempt < 2 }
					k.Retries = 3
				}
				return k
			},
		}
	}
	graph := runGraphParityLeg(t, build, false, 16)
	ref := runGraphParityLeg(t, build, true, 16)
	if graph.Retries != 2 || !reflect.DeepEqual(graph, ref) {
		t.Errorf("retry accounting diverges:\ngraph:\n%v\nref:\n%v", graph, ref)
	}
}
