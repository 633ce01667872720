package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"entk/internal/core"
	"entk/internal/vclock"
	"entk/internal/workload"
)

// figRunner is one of the eleven runners cmd/entk-validate executes: a
// figure or ablation of the paper, with its shape check.
type figRunner struct {
	name string
	// run executes the sweep and its Check; fig3 is the Figure 3 result
	// Figure 4's kernel-invariance check compares against.
	run func(fig3 *workload.Fig3Result) (res any, units, sessions int, err error)
}

var figRunners = []figRunner{
	{"fig3", func(*workload.Fig3Result) (any, int, int, error) {
		res, err := workload.Fig3(nil)
		if err != nil {
			return nil, 0, 0, err
		}
		units := 0
		for _, r := range res.Rows {
			units += 2 * r.Tasks // two stages of Tasks each; EE's exchange steps are not counted
		}
		return res, units, len(res.Rows), res.Check()
	}},
	{"fig4", func(fig3 *workload.Fig3Result) (any, int, int, error) {
		res, err := workload.Fig4(nil)
		if err != nil {
			return nil, 0, 0, err
		}
		units := 0
		for _, r := range res.Rows {
			units += r.Tasks + 1
		}
		return res, units, len(res.Rows), res.Check(fig3)
	}},
	{"fig5", func(*workload.Fig3Result) (any, int, int, error) { return eeRunner(workload.Fig5(nil)) }},
	{"fig6", func(*workload.Fig3Result) (any, int, int, error) { return eeRunner(workload.Fig6(nil)) }},
	{"fig7", func(*workload.Fig3Result) (any, int, int, error) { return salRunner(workload.Fig7(nil)) }},
	{"fig8", func(*workload.Fig3Result) (any, int, int, error) { return salRunner(workload.Fig8(nil)) }},
	{"fig9", func(*workload.Fig3Result) (any, int, int, error) { return salRunner(workload.Fig9(nil)) }},
	{"ablation_exchange", func(*workload.Fig3Result) (any, int, int, error) {
		res, err := workload.AblationExchangeMode()
		if err != nil {
			return nil, 0, 0, err
		}
		// 64 replicas x 4 cycles per mode; exchange steps are not counted.
		return res, len(res.Rows) * 64 * 4, len(res.Rows), res.Check()
	}},
	{"ablation_backfill", func(*workload.Fig3Result) (any, int, int, error) {
		res, err := workload.AblationBackfill()
		if err != nil {
			return nil, 0, 0, err
		}
		return res, 0, len(res.Rows), res.Check() // pilots only, no units
	}},
	{"ablation_dispatch", func(*workload.Fig3Result) (any, int, int, error) {
		res, err := workload.AblationDispatch()
		if err != nil {
			return nil, 0, 0, err
		}
		units := 0
		for _, r := range res.Rows {
			units += r.Tasks
		}
		return res, units, len(res.Rows), res.Check()
	}},
	{"ablation_placement", func(*workload.Fig3Result) (any, int, int, error) {
		res, err := workload.AblationAgentScheduler()
		if err != nil {
			return nil, 0, 0, err
		}
		return res, len(res.Rows) * 24, len(res.Rows), res.Check()
	}},
}

func eeRunner(res *workload.EEResult, err error) (any, int, int, error) {
	if err != nil {
		return nil, 0, 0, err
	}
	units := 0
	for _, r := range res.Rows {
		units += r.Replicas + 1
	}
	return res, units, len(res.Rows), res.Check()
}

func salRunner(res *workload.SALResult, err error) (any, int, int, error) {
	if err != nil {
		return nil, 0, 0, err
	}
	units := 0
	for _, r := range res.Rows {
		units += r.Simulations + 1
	}
	return res, units, len(res.Rows), res.Check()
}

// preflight runs the eleven paper-shape checks once, in entk-validate's
// order, and returns the Figure 3 result. Every workload's set-up
// starts with it: a tree whose figures are broken measures nothing.
func preflight() (*workload.Fig3Result, error) {
	var fig3 *workload.Fig3Result
	for _, r := range figRunners {
		res, _, _, err := r.run(fig3)
		if err != nil {
			return nil, fmt.Errorf("pre-flight %s: %w", r.name, err)
		}
		if f, ok := res.(*workload.Fig3Result); ok {
			fig3 = f
		}
	}
	return fig3, nil
}

// paperFigs is the paper's own traffic. The figures' inputs are the
// paper's, so the seed only chooses the order the runners execute in.
type paperFigs struct {
	fig3  *workload.Fig3Result
	order []int
}

func setupPaperFigs(e *env) (instance, error) {
	fig3, err := preflight()
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(e.seed)).Perm(len(figRunners))
	return &paperFigs{fig3: fig3, order: order}, nil
}

func (p *paperFigs) close() {}

func (p *paperFigs) rep(e *env) (*repResult, error) {
	r := &repResult{columns: make(map[string]float64)}
	results := make([]any, len(figRunners))
	root := e.tr.start("rep", 0)
	r.wallS, r.cpuS = measure(func() {
		for _, i := range p.order {
			fr := figRunners[i]
			sp := e.tr.start("workload."+fr.name, root)
			res, units, sessions, err := fr.run(p.fig3)
			e.tr.end(sp)
			r.attempted++
			if err != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("paper-figs: %s: %v", fr.name, err))
				continue
			}
			results[i] = res
			r.units += units
			r.campaigns += sessions
		}
	})
	e.tr.end(root)
	r.latMS = []float64{r.wallS * 1000}
	for i, res := range results {
		if res == nil {
			continue
		}
		if err := flatten(figRunners[i].name, res, r.columns); err != nil {
			return nil, err
		}
	}
	// The decomposition is summed over the rows that expose each term;
	// queue wait and agent boot are not in the figures' tables.
	for col, v := range r.columns {
		switch {
		case strings.HasSuffix(col, ".TTCSec"):
			r.ttc.total += v
		case strings.HasSuffix(col, ".ExecSec"), strings.HasSuffix(col, ".SimSec"),
			strings.HasSuffix(col, ".ExchangeSec"), strings.HasSuffix(col, ".AnalysisSec"):
			r.ttc.exec += v
		case strings.HasSuffix(col, ".PatternOverhead"):
			r.ttc.patternOvh += v
		case strings.HasSuffix(col, ".CoreOverheadSec"):
			r.ttc.coreOvh += v
		}
	}
	if e.tr != nil {
		if err := p.tracedSession(e, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedSession runs a replica of Figure 3's smallest session (24
// two-stage pipelines of mkfile/ccount on 24 Comet cores) with spans
// around allocate, run and deallocate: the workload package hides its
// sessions, and this is the per-session fixed cost paper-figs is about.
func (p *paperFigs) tracedSession(e *env, r *repResult) error {
	const n = 24
	v := vclock.NewVirtual()
	h, err := core.NewResourceHandle("xsede.comet", n, 10000*time.Hour, core.Config{Clock: v})
	if err != nil {
		return err
	}
	pat := &core.EnsembleOfPipelines{
		Pipelines: n,
		Stages:    2,
		StageKernel: func(stage, pipe int) *core.Kernel {
			name := "misc.ccount"
			if stage == 1 {
				name = "misc.mkfile"
			}
			return &core.Kernel{Name: name, Params: map[string]float64{"size_mb": 10}}
		},
	}
	root := e.tr.start("session", 0)
	defer e.tr.end(root)
	var rep *core.Report
	err = tracedExecute(e, root, v, h, func() (err error) { rep, err = h.Run(pat); return err })
	if err != nil {
		return fmt.Errorf("paper-figs: traced session: %w", err)
	}
	r.coreUnits, r.coreStages = rep.Tasks, 2
	return nil
}
