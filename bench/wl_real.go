package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"entk/internal/campaign"
)

// realTrue asks the paper's Figure 3 question of our own backend: what
// does the toolkit add to a process that does nothing? One stage of
// /bin/true on a two-core local pilot through campaign.Run in real
// mode, then the same number of processes through a bare fork/exec loop
// with the same concurrency. No virtual-time layer runs, so a change to
// the simulation engine must leave this workload flat. The processes
// are identical by construction; the seed changes nothing in it.
type realTrue struct {
	procs   int
	camp    *campaign.Campaign
	scratch string
	seq     int
}

const (
	realCores = 2
	realExe   = "/bin/true"
)

func setupRealTrue(e *env) (instance, error) {
	if _, err := preflight(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(realExe); err != nil {
		return nil, fmt.Errorf("real-true: %w", err)
	}
	r := &realTrue{procs: e.scaled(300), scratch: e.scratch}
	r.camp = &campaign.Campaign{
		Name:      "real-true",
		Resources: []campaign.Pilot{{Resource: "local.localhost", Cores: realCores, WalltimeMin: 60}},
		Pipelines: []campaign.Pipeline{{Name: "p", Stages: []campaign.Stage{{Name: "true", Tasks: []campaign.Task{{
			Name: "true", Count: r.procs,
			Kernel: campaign.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 0.001}, Executable: realExe},
		}}}}}},
	}
	if err := r.camp.Validate(); err != nil {
		return nil, fmt.Errorf("real-true: %w", err)
	}
	return r, nil
}

func (rt *realTrue) close() {}

func (rt *realTrue) rep(e *env) (*repResult, error) {
	rt.seq++
	dir := filepath.Join(rt.scratch, fmt.Sprintf("real-capture-%d", rt.seq))
	defer os.RemoveAll(dir)

	r := &repResult{attempted: 2 * rt.procs}
	var (
		res *campaign.Result
		err error
	)
	// CPU is taken over the whole repetition — campaign and bare loop —
	// and includes the reaped children, per process started. The parent's
	// own CPU over the campaign alone is ~1 ms per process spread over
	// thousands of idle wake-ups, and on a shared VM identical runs
	// disagree on it by a factor of two to three; the processes' own CPU
	// and the bare loop's are the steady ballast that makes the figure
	// repeat (see README, "real-true and CPU time").
	cpu0 := cpuSeconds() + childCPUSeconds()
	root := e.tr.start("rep", 0)
	sp := e.tr.start("campaign.run", root)
	r.wallS, _ = measure(func() {
		res, err = campaign.Run(rt.camp, campaign.Options{Mode: campaign.ModeReal, Dir: dir})
	})
	e.tr.end(sp)
	if err != nil {
		// A unit that exited non-zero fails the campaign; count it, keep measuring.
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("real-true: %v", err))
	}
	if res == nil || res.Campaign == nil {
		return nil, fmt.Errorf("real-true: campaign produced no report: %v", err)
	}
	rep := res.Campaign.Campaign
	if rep.Tasks != rt.procs || rep.Retries != 0 {
		r.failed += abs(rt.procs-rep.Tasks) + rep.Retries
		r.problems = append(r.problems, fmt.Sprintf("real-true: settled %d of %d processes, %d retries", rep.Tasks, rt.procs, rep.Retries))
	}
	if done := res.Prof.Count("unit.", "state_DONE"); done != rt.procs {
		r.failed += abs(rt.procs - done)
		r.problems = append(r.problems, fmt.Sprintf("real-true: %d units reached DONE, want %d", done, rt.procs))
	}
	r.units, r.campaigns = rep.Tasks, 1
	r.latMS = []float64{r.wallS * 1000}
	r.ttc = ttcTerms{
		total:      rep.TTC.Seconds(),
		exec:       rep.ExecTime().Seconds(),
		patternOvh: rep.PatternOverhead.Seconds(),
		coreOvh:    rep.CoreOverhead.Seconds(),
		queueWait:  rep.QueueWait.Seconds(),
		agentBoot:  rep.AgentStartup.Seconds(),
	}

	sp = e.tr.start("bare.loop", root)
	var bareFailed int
	r.bareS, bareFailed = bareLoop(rt.procs, realCores)
	e.tr.end(sp)
	e.tr.end(root)
	r.cpuS, r.cpuUnits = cpuSeconds()+childCPUSeconds()-cpu0, 2*rt.procs
	if bareFailed > 0 {
		r.failed += bareFailed
		r.problems = append(r.problems, fmt.Sprintf("real-true: %d bare %s processes failed", bareFailed, realExe))
	}
	return r, nil
}

// bareLoop runs n processes with the given concurrency and nothing
// else: the floor the toolkit's per-process overhead is measured from.
func bareLoop(n, workers int) (wallS float64, failed int) {
	var mu sync.Mutex
	next := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := exec.Command(realExe).Run(); err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds(), failed
}
