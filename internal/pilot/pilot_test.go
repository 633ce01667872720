package pilot

import (
	"strings"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/kernels"
	"entk/internal/vclock"
)

// testSession builds a session on a private 8-node x 4-core machine with
// negligible latencies except where a test overrides them.
func testSession(t *testing.T, v *vclock.Virtual) *Session {
	t.Helper()
	m := &cluster.Machine{
		Name:              "test.pilot",
		Nodes:             8,
		CoresPerNode:      4,
		MemPerNodeGB:      8,
		AgentBootTime:     time.Second,
		TaskLaunchLatency: 10 * time.Millisecond,
		NetLatency:        5 * time.Millisecond,
		FSBandwidthMBps:   100,
		FSLatency:         time.Millisecond,
		QueueWaitBase:     2 * time.Second,
		QueueWaitPerNode:  0,
	}
	if err := cluster.Register(m); err != nil {
		t.Fatal(err)
	}
	return NewSession(v, kernels.NewRegistry(), DefaultConfig())
}

// startPilot submits a pilot and waits for activation.
func startPilot(t *testing.T, s *Session, cores int) (*PilotManager, *ComputePilot) {
	t.Helper()
	pm := NewPilotManager(s)
	p, err := pm.Submit(PilotDescription{
		Resource: "test.pilot", Cores: cores, Walltime: 10 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitActive()
	if p.State() != PilotActive {
		t.Fatalf("pilot state = %v, want ACTIVE", p.State())
	}
	return pm, p
}

func sleepUnit(name string, seconds float64) UnitDescription {
	return UnitDescription{
		Name:   name,
		Kernel: "misc.sleep",
		Params: map[string]float64{"seconds": seconds},
		Cores:  1,
	}
}

// nopRunner is a real-mode runner that runs nothing.
type nopRunner struct{}

func (nopRunner) RunUnit(ExecRequest) error { return nil }
func (nopRunner) ReleasePilot(int)          {}

// TestNewSessionRunnerNeedsWallClock pins the real-mode guard: a Runner
// blocks on real processes outside the virtual engine's accounting, so
// NewSession refuses one under a virtual clock and accepts it under a
// wall clock.
func TestNewSessionRunnerNeedsWallClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runner = nopRunner{}
	newSession := func(v vclock.Clock) (msg any) {
		defer func() { msg = recover() }()
		NewSession(v, kernels.NewRegistry(), cfg)
		return nil
	}
	want := "pilot: Config.Runner requires a wall clock (vclock.NewWall); real execution cannot run under a virtual engine"
	if got := newSession(vclock.NewVirtual()); got != want {
		t.Errorf("virtual clock: panic = %v, want %q", got, want)
	}
	if got := newSession(vclock.NewWall()); got != nil {
		t.Errorf("wall clock: panic = %v, want none", got)
	}
}

func TestPilotDescriptionValidate(t *testing.T) {
	bad := []PilotDescription{
		{Cores: 1, Walltime: time.Hour},
		{Resource: "r", Cores: 0, Walltime: time.Hour},
		{Resource: "r", Cores: 1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUnitDescriptionValidate(t *testing.T) {
	if err := (&UnitDescription{Kernel: "k", Cores: 4, MPI: true}).Validate(); err != nil {
		t.Error(err)
	}
	bad := []UnitDescription{
		{Cores: 1},                          // no kernel
		{Kernel: "k", Cores: 0},             // no cores
		{Kernel: "k", Cores: 2, MPI: false}, // multicore without MPI
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPilotLifecycle(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		p, err := pm.Submit(PilotDescription{
			Resource: "test.pilot", Cores: 8, Walltime: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.State() != PilotPending {
			t.Errorf("state = %v, want PENDING", p.State())
		}
		p.WaitActive()
		// Queue wait (2s plus the saga submit round trip) is visible
		// through the profiler.
		if qw := p.QueueWait(); qw < 2*time.Second || qw > 2*time.Second+100*time.Millisecond {
			t.Errorf("queue wait = %v, want ~2s", qw)
		}
		p.Cancel()
		if st := p.WaitFinal(); st != PilotCanceled {
			t.Errorf("final = %v, want CANCELED", st)
		}
		if got := pm.Pilots(); len(got) != 1 || got[0] != p {
			t.Errorf("Pilots() = %v", got)
		}
	})
}

func TestPilotSubmitErrors(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		if _, err := pm.Submit(PilotDescription{Resource: "no.such", Cores: 1, Walltime: time.Hour}); err == nil {
			t.Error("unknown resource accepted")
		}
		if _, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 1 << 20, Walltime: time.Hour}); err == nil {
			t.Error("oversized pilot accepted")
		}
	})
}

func TestUnitRunsToDone(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		u, err := um.SubmitOne(sleepUnit("hello", 5))
		if err != nil {
			t.Fatal(err)
		}
		if st := u.WaitFinal(); st != UnitDone {
			t.Fatalf("final = %v (err %v)", st, u.Err())
		}
		if got := u.ExecDuration(); got != 5*time.Second {
			t.Errorf("exec duration = %v, want 5s", got)
		}
		if u.Pilot() != p {
			t.Error("unit not bound to pilot")
		}
		p.Cancel()
	})
}

func TestSubmitWithoutPilotFailsUnit(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		um := NewUnitManager(s)
		u, err := um.SubmitOne(sleepUnit("orphan", 1))
		if err != nil {
			t.Fatal(err)
		}
		if st := u.WaitFinal(); st != UnitFailed {
			t.Errorf("final = %v, want FAILED", st)
		}
		if u.Err() == nil || !strings.Contains(u.Err().Error(), "no pilots") {
			t.Errorf("err = %v", u.Err())
		}
	})
}

func TestMoreUnitsThanCores(t *testing.T) {
	// The core pilot capability: 24 one-second units on 8 cores run in 3
	// waves. This is "decoupling the workload from instantaneous
	// resources".
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, 24)
		for i := range descs {
			descs[i] = sleepUnit("wave", 1)
		}
		start := v.Now()
		units, err := um.Submit(descs)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range um.WaitAll(units) {
			if st != UnitDone {
				t.Fatalf("unit state %v", st)
			}
		}
		elapsed := v.Now() - start
		// 3 waves of 1s plus launch latencies; must be well under the
		// serial 24s and at least 3s.
		if elapsed < 3*time.Second || elapsed > 6*time.Second {
			t.Errorf("24 units on 8 cores took %v, want ~3s", elapsed)
		}
		p.Cancel()
	})
}

func TestAgentNeverOversubscribes(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, 40)
		for i := range descs {
			descs[i] = sleepUnit("load", 0.5)
		}
		units, _ := um.Submit(descs)
		// Sample free cores while the workload churns.
		stop := vclock.NewEvent(v, "sampler stop")
		v.Go(func() {
			for i := 0; i < 100; i++ {
				if stop.Fired() {
					return
				}
				if free := p.agent.freeCores(); free < 0 || free > 8 {
					t.Errorf("free cores out of range: %d", free)
					return
				}
				v.Sleep(50 * time.Millisecond)
			}
		})
		um.WaitAll(units)
		stop.Fire()
		p.agent.quiesce().Wait() // the last release follows the last final
		if free := p.agent.freeCores(); free != 8 {
			t.Errorf("free cores after drain = %d, want 8", free)
		}
		p.Cancel()
	})
}

func TestMPIUnitSpansNodes(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		// 8 cores over 2 nodes (4 cores/node).
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		u, err := um.SubmitOne(UnitDescription{
			Name:   "mpi-span",
			Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1},
			Cores:  6, // must span both nodes
			MPI:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := u.WaitFinal(); st != UnitDone {
			t.Fatalf("final = %v (err %v)", st, u.Err())
		}
		p.Cancel()
	})
}

func TestNonMPIMulticoreConfinedToNode(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		// 6 > 4 cores/node and not MPI: must fail, not wedge.
		u := newUnit(s, UnitDescription{Name: "toowide", Kernel: "misc.sleep", Cores: 6, MPI: true})
		u.Desc.MPI = false
		u.mu.Lock()
		u.pilot = p
		u.mu.Unlock()
		p.agent.submit(u)
		if st := u.WaitFinal(); st != UnitFailed {
			t.Fatalf("final = %v, want FAILED", st)
		}
		if !strings.Contains(u.Err().Error(), "node has") {
			t.Errorf("err = %v", u.Err())
		}
		p.Cancel()
	})
}

func TestUnitLargerThanPilotFails(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 4)
		um := NewUnitManager(s)
		um.AddPilot(p)
		u, _ := um.SubmitOne(UnitDescription{
			Name: "huge", Kernel: "misc.sleep", Cores: 16, MPI: true,
		})
		if st := u.WaitFinal(); st != UnitFailed {
			t.Fatalf("final = %v, want FAILED", st)
		}
		p.Cancel()
	})
}

func TestRoundRobinSpreadsUnits(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		var pilots []*ComputePilot
		for i := 0; i < 2; i++ {
			p, err := pm.Submit(PilotDescription{
				Resource: "test.pilot", Cores: 4, Walltime: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			pilots = append(pilots, p)
		}
		for _, p := range pilots {
			p.WaitActive()
		}
		um := NewUnitManager(s)
		for _, p := range pilots {
			um.AddPilot(p)
		}
		descs := make([]UnitDescription, 8)
		for i := range descs {
			descs[i] = sleepUnit("rr", 1)
		}
		units, _ := um.Submit(descs)
		um.WaitAll(units)
		count := map[*ComputePilot]int{}
		for _, u := range units {
			count[u.Pilot()]++
		}
		if count[pilots[0]] != 4 || count[pilots[1]] != 4 {
			t.Errorf("round robin spread %d/%d, want 4/4", count[pilots[0]], count[pilots[1]])
		}
		for _, p := range pilots {
			p.Cancel()
		}
	})
}

func TestFaultInjectionAndAttempts(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		failFirst := func(attempt int) bool { return attempt == 0 }
		d := sleepUnit("flaky", 1)
		d.FailOn = failFirst
		u, _ := um.SubmitOne(d)
		if st := u.WaitFinal(); st != UnitFailed {
			t.Fatalf("attempt 0 state = %v, want FAILED", st)
		}
		// Resubmit as attempt 1 (what the toolkit's retry layer does).
		d.Attempt = 1
		u2, _ := um.SubmitOne(d)
		if st := u2.WaitFinal(); st != UnitDone {
			t.Fatalf("attempt 1 state = %v (err %v)", st, u2.Err())
		}
		p.Cancel()
	})
}

func TestWorkHookRunsAndPropagatesErrors(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		ran := false
		d := sleepUnit("worker", 0.1)
		d.Work = func() error { ran = true; return nil }
		u, _ := um.SubmitOne(d)
		if st := u.WaitFinal(); st != UnitDone || !ran {
			t.Fatalf("work unit state=%v ran=%v", st, ran)
		}
		p.Cancel()
	})
}

func TestPilotCancelFailsQueuedUnits(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 1) // 1 core: everything queues behind one unit
		um := NewUnitManager(s)
		um.AddPilot(p)
		blocker, _ := um.SubmitOne(sleepUnit("blocker", 1000))
		queued, _ := um.SubmitOne(sleepUnit("queued", 1))
		v.Sleep(time.Second) // let the blocker start
		p.Cancel()
		if st := queued.WaitFinal(); st != UnitFailed {
			t.Errorf("queued unit state = %v, want FAILED", st)
		}
		_ = blocker
	})
}

func TestUnitCancelWhileQueued(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 1)
		um := NewUnitManager(s)
		um.AddPilot(p)
		um.SubmitOne(sleepUnit("blocker", 100))
		victim, _ := um.SubmitOne(sleepUnit("victim", 1))
		v.Sleep(500 * time.Millisecond)
		victim.Cancel()
		if st := victim.WaitFinal(); st != UnitCanceled {
			t.Errorf("state = %v, want CANCELED", st)
		}
		p.Cancel()
	})
}

func TestStagingRecordedInProfile(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		d := sleepUnit("stager", 0.1)
		d.InputStaging = []Directive{{Op: OpUpload, Source: "in.dat", SizeMB: 10}}
		d.OutputStaging = []Directive{{Op: OpDownload, Source: "out.dat", SizeMB: 1}}
		u, _ := um.SubmitOne(d)
		if st := u.WaitFinal(); st != UnitDone {
			t.Fatalf("state = %v (err %v)", st, u.Err())
		}
		if _, ok := s.Prof.First(u.Entity(), "stagein_start"); !ok {
			t.Error("no stagein_start event")
		}
		if _, ok := s.Prof.Last(u.Entity(), "stageout_stop"); !ok {
			t.Error("no stageout_stop event")
		}
		p.Cancel()
	})
}

func TestStateStrings(t *testing.T) {
	for _, s := range []UnitState{UnitNew, UnitScheduling, UnitQueued, UnitStagingInput,
		UnitExecuting, UnitStagingOutput, UnitDone, UnitFailed, UnitCanceled, UnitState(99)} {
		if s.String() == "" {
			t.Errorf("empty unit state string for %d", int(s))
		}
	}
	for _, s := range []PilotState{PilotPending, PilotActive, PilotDone, PilotCanceled,
		PilotFailed, PilotState(99)} {
		if s.String() == "" {
			t.Errorf("empty pilot state string for %d", int(s))
		}
	}
	if !UnitDone.Final() || UnitQueued.Final() {
		t.Error("UnitState.Final wrong")
	}
	if !PilotFailed.Final() || PilotActive.Final() {
		t.Error("PilotState.Final wrong")
	}
	if FirstFit.String() == "" || BestFit.String() == "" {
		t.Error("empty policy strings")
	}
}

// Pilots returns the submitted pilots in submission order.
func (pm *PilotManager) Pilots() []*ComputePilot {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return append([]*ComputePilot(nil), pm.pilots...)
}
