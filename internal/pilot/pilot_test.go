package pilot

import (
	"errors"
	"runtime"
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

// TestPilotDescriptionValidateNamesField pins that a well-formed
// description validates, with or without its optional queue and
// project, and that a description missing one required field is
// refused with an error naming that field.
func TestPilotDescriptionValidateNamesField(t *testing.T) {
	good := []PilotDescription{
		{Resource: "r", Cores: 4, Walltime: time.Hour},
		{Resource: "r", Cores: 4, Walltime: time.Hour, Queue: "debug", Project: "p"},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
	bad := map[string]PilotDescription{
		"resource": {Cores: 4, Walltime: time.Hour},
		"cores":    {Resource: "r", Cores: -1, Walltime: time.Hour},
		"walltime": {Resource: "r", Cores: 4, Walltime: -time.Second},
	}
	for field, d := range bad {
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("missing %s: err = %v, want one naming %q", field, err, field)
		}
	}
}

// TestPilotSubmitRejectsInvalid pins where a submit that cannot succeed
// stops: a malformed or oversized description is refused before the
// request goes out, so the clock does not move, no pilot is listed and
// no pilot id is used up.
func TestPilotSubmitRejectsInvalid(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		t0 := v.Now()
		for name, d := range map[string]PilotDescription{
			"empty":     {},
			"oversized": {Resource: "test.pilot", Cores: 10000, Walltime: time.Hour},
		} {
			if _, err := pm.Submit(d); err == nil {
				t.Errorf("%s description accepted", name)
			}
		}
		if got := v.Now() - t0; got != 0 {
			t.Errorf("rejected submits took %v, want 0", got)
		}
		if got := pm.Pilots(); len(got) != 0 {
			t.Errorf("Pilots() = %v after rejected submits, want none", got)
		}
		p, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 4, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if p.ID != 1 {
			t.Errorf("first accepted pilot has ID %d, want 1", p.ID)
		}
		p.Cancel()
		p.WaitFinal()
	})
}

func TestUnitDescriptionValidate(t *testing.T) {
	if err := (&UnitDescription{Kernel: "k", Cores: 4, MPI: true}).validate("u"); err != nil {
		t.Error(err)
	}
	bad := []*UnitDescription{
		nil,                                 // no description
		{Cores: 1},                          // no kernel
		{Kernel: "k", Cores: 0},             // no cores
		{Kernel: "k", Cores: 2, MPI: false}, // multicore without MPI
	}
	for i, d := range bad {
		if err := d.validate("u"); err == nil || !strings.Contains(err.Error(), `unit "u"`) {
			t.Errorf("case %d: err = %v, want a rejection naming the unit", i, err)
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
		// Queue wait (2s plus the submit round trip) is visible through
		// the profiler.
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

// TestPilotControlLatency pins what each control operation costs on the
// clock: a submit pays its request and ack (2 × NetLatency), a cancel
// one request (NetLatency), and a kill nothing, because the job dies on
// the resource side. Teardown runs inline at the job's end, so the pilot
// is final at the instant its job is.
func TestPilotControlLatency(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	m, err := cluster.Lookup("test.pilot")
	if err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		pm := NewPilotManager(s)
		desc := PilotDescription{Resource: "test.pilot", Cores: 4, Walltime: time.Hour}
		t0 := v.Now()
		p, err := pm.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Now() - t0; got != 2*m.NetLatency {
			t.Errorf("submit took %v, want 2 × NetLatency = %v", got, 2*m.NetLatency)
		}
		p.WaitActive()
		t0 = v.Now()
		p.Cancel()
		if got := v.Now() - t0; got != m.NetLatency {
			t.Errorf("cancel took %v, want NetLatency = %v", got, m.NetLatency)
		}
		if st := p.State(); st != PilotCanceled {
			t.Errorf("state after cancel = %v, want CANCELED", st)
		}

		q, err := pm.Submit(desc)
		if err != nil {
			t.Fatal(err)
		}
		q.WaitActive()
		t0 = v.Now()
		q.Kill(errors.New("injected"))
		if got := v.Now() - t0; got != 0 {
			t.Errorf("kill took %v, want 0", got)
		}
		if st := q.State(); st != PilotFailed {
			t.Errorf("state after kill = %v, want FAILED", st)
		}
	})
}

// TestPilotWalltimeExpiryFails pins the natural end of an allocation:
// the batch system kills the placeholder job at its walltime, and the
// pilot ends FAILED at that instant.
func TestPilotWalltimeExpiryFails(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		t0 := v.Now()
		p, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 4, Walltime: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		p.WaitActive()
		if st := p.WaitFinal(); st != PilotFailed {
			t.Errorf("final = %v, want FAILED", st)
		}
		// The job started once its queue wait was over, and ran out its
		// walltime from there.
		if got, want := v.Now()-t0, p.QueueWait()+time.Minute; got != want {
			t.Errorf("pilot ended at %v, want queue wait + walltime = %v", got, want)
		}
	})
}

// TestPilotCancelWhileQueued pins a cancel that lands before the
// allocation starts: the pilot ends CANCELED without ever running, and
// WaitActive returns instead of blocking for good.
func TestPilotCancelWhileQueued(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		p, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 4, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		p.Cancel() // the 2 s queue wait is still ahead
		p.WaitActive()
		if st := p.State(); st != PilotCanceled {
			t.Errorf("state = %v, want CANCELED", st)
		}
		if qw := p.QueueWait(); qw != 0 {
			t.Errorf("queue wait = %v, want 0: the job never ran", qw)
		}
	})
}

// TestSessionLeavesNoProcess pins that a pilot's lifecycle holds no
// process. The session returns from Run with one pilot active and never
// cancelled and a second still queued behind it; a phantom process
// (Attach with no matching exit) then holds the clock at that instant
// for good, as an abandoned simulation would. Every step either pilot
// still has ahead is a timer or a callback, so no goroutine outlives
// the run.
func TestSessionLeavesNoProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		pm := NewPilotManager(s)
		active, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 4, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		active.WaitActive()
		// The whole machine: queued until the active pilot's job ends.
		queued, err := pm.Submit(PilotDescription{Resource: "test.pilot", Cores: 32, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		v.Sleep(time.Minute)
		if active.State() != PilotActive || queued.State() != PilotPending {
			t.Fatalf("states %v/%v, want ACTIVE/PENDING", active.State(), queued.State())
		}
		v.Attach()
	})
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines outlive the session (%d before, %d after)", after-before, before, after)
	}
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
		u := newUnit(s, WaveUnit{Desc: &UnitDescription{Kernel: "misc.sleep", Cores: 6}, Name: "toowide"}, nil)
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
