package pilot

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"entk/internal/kernels"
	"entk/internal/vclock"
)

// TestLauncherWidthSerializesLaunches pins the launcher rule: one launch
// slot per allocated node, handed out in placement order. Units submitted
// as one wave pay the wave's client-side cost (10ms each) and then launch
// in submission order, one node-width group at a time, each group 10ms
// (the launch latency) after the one before. On a one-node pilot unit k
// therefore starts executing 40ms + (k+1)×10ms after submission; on a
// two-node pilot eight units start in pairs from 90ms. Any other width,
// or any launch order but placement order, moves the starts.
func TestLauncherWidthSerializesLaunches(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		cores int // test machine nodes are 4 cores wide
		want  []time.Duration
	}{
		{"one-node", 4, ms(50, 60, 70, 80)},
		{"two-node", 8, ms(90, 90, 100, 100, 110, 110, 120, 120)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			v.Run(func() {
				_, p := startPilot(t, s, tc.cores)
				um := NewUnitManager(s)
				um.AddPilot(p)
				descs := make([]UnitDescription, len(tc.want))
				for i := range descs {
					descs[i] = sleepUnit(fmt.Sprintf("w%d", i), 1)
				}
				t0 := v.Now()
				units, _ := um.Submit(descs)
				um.WaitAll(units)
				var starts []time.Duration
				for _, u := range units {
					start, stop, ok := u.ExecWindow()
					if !ok || stop-start != time.Second {
						t.Fatalf("unit %s window [%v, %v] ok=%v, want 1s executed", u.Name(), start, stop, ok)
					}
					starts = append(starts, start-t0)
				}
				if !slices.Equal(starts, tc.want) {
					t.Errorf("exec starts after submit, in submission order = %v, want %v", starts, tc.want)
				}
				p.Cancel()
			})
		})
	}
}

func TestBestFitPacksTightestNode(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	s.Cfg.Agent = BestFit
	v.Run(func() {
		_, p := startPilot(t, s, 8) // 2 nodes x 4 cores
		um := NewUnitManager(s)
		um.AddPilot(p)
		// Occupy 3 cores on node 0 (leaving 1 free) with a long task.
		long := UnitDescription{Name: "long", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 100}, Cores: 3, MPI: true}
		u1, _ := um.SubmitOne(long)
		v.Sleep(time.Second)
		if u1.State() != UnitExecuting {
			t.Fatalf("long unit state %v", u1.State())
		}
		// A 1-core task under best-fit must choose node 0 (1 free) not
		// node 1 (4 free), leaving node 1 whole for a wide task.
		small, _ := um.SubmitOne(sleepUnit("small", 100))
		v.Sleep(time.Second)
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 4, MPI: true}
		u3, _ := um.SubmitOne(wide)
		// Wide task fits whole on node 1 only if best-fit kept it clear.
		start := v.Now()
		if st := u3.WaitFinal(); st != UnitDone {
			t.Fatalf("wide unit state %v (err %v)", st, u3.Err())
		}
		if v.Now()-start > 5*time.Second {
			t.Errorf("wide task waited %v: best-fit fragmented the nodes", v.Now()-start)
		}
		_ = small
		p.Cancel()
	})
}

func TestFirstFitFragmentsInSameScenario(t *testing.T) {
	// The mirror of the best-fit test: first-fit puts the small task on
	// node 1 (first with space after node 0 fills), so the 4-core wide
	// task cannot start until the small task finishes.
	v := vclock.NewVirtual()
	s := testSession(t, v)
	s.Cfg.Agent = FirstFit
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		long := UnitDescription{Name: "long", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 100}, Cores: 4, MPI: true}
		um.SubmitOne(long) // fills node 0 entirely
		v.Sleep(time.Second)
		// Small task lands on node 1 under both policies now; use a
		// 3-core holder to leave 1 free on node 1.
		holder := UnitDescription{Name: "holder", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 30}, Cores: 3, MPI: true}
		um.SubmitOne(holder)
		v.Sleep(time.Second)
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 4, MPI: true}
		u3, _ := um.SubmitOne(wide)
		start := v.Now()
		if st := u3.WaitFinal(); st != UnitDone {
			t.Fatalf("wide unit state %v", st)
		}
		// Wide must wait ~28s for the holder to release node 1.
		if v.Now()-start < 25*time.Second {
			t.Errorf("wide task started after %v, expected to wait for fragmentation", v.Now()-start)
		}
		p.Cancel()
	})
}

func TestMPIAllocationExactlyCoversRequest(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 12) // 3 nodes: 4+4+4
		a := p.agent
		a.mu.Lock()
		alloc, ok := a.sched.tryPlace(10, true)
		a.mu.Unlock()
		if !ok {
			t.Fatal("place failed")
		}
		alloc.forEach(func(node, n int) {
			if node < 0 || node >= 3 || n <= 0 || n > 4 {
				t.Errorf("bad allocation entry node=%d n=%d", node, n)
			}
		})
		if total := alloc.total(); total != 10 {
			t.Errorf("allocated %d cores, want 10", total)
		}
		if free := a.freeCores(); free != 2 {
			t.Errorf("free after place = %d, want 2", free)
		}
		a.mu.Lock()
		a.sched.release(alloc)
		a.mu.Unlock()
		if free := a.freeCores(); free != 12 {
			t.Errorf("free after release = %d, want 12", free)
		}
		p.Cancel()
	})
}

func TestPilotSmallerThanOneNode(t *testing.T) {
	// A 2-core pilot on a 4-core-per-node machine gets one node with
	// exactly 2 usable cores.
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 2)
		if got := p.agent.freeCores(); got != 2 {
			t.Errorf("pilot cores = %d, want 2", got)
		}
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := []UnitDescription{sleepUnit("a", 1), sleepUnit("b", 1), sleepUnit("c", 1)}
		t0 := v.Now()
		units, _ := um.Submit(descs)
		um.WaitAll(units)
		// 3 tasks on 2 cores: 2 waves.
		if elapsed := v.Now() - t0; elapsed < 2*time.Second {
			t.Errorf("3 tasks on 2 cores took %v, want >= 2s", elapsed)
		}
		p.Cancel()
	})
}

func TestAgentContinuousSchedulingSkipsBlockedHead(t *testing.T) {
	// A wide task that cannot fit yet must not block smaller tasks
	// behind it (continuous scheduling, unlike strict FIFO).
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um := NewUnitManager(s)
		um.AddPilot(p)
		hog := UnitDescription{Name: "hog", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 50}, Cores: 6, MPI: true}
		um.SubmitOne(hog)
		v.Sleep(time.Second)
		// Wide cannot start (needs 8, only 2 free).
		wide := UnitDescription{Name: "wide", Kernel: "misc.sleep",
			Params: map[string]float64{"seconds": 1}, Cores: 8, MPI: true}
		uw, _ := um.SubmitOne(wide)
		// Small fits in the 2 free cores and must run ahead of wide.
		us, _ := um.SubmitOne(sleepUnit("small", 1))
		if st := us.WaitFinal(); st != UnitDone {
			t.Fatalf("small state %v", st)
		}
		if v.Now() > 10*time.Second {
			t.Errorf("small task waited behind blocked wide task (t=%v)", v.Now())
		}
		if st := uw.WaitFinal(); st != UnitDone {
			t.Fatalf("wide state %v", st)
		}
		p.Cancel()
	})
}

// TestWorkMayBlockOnTheClock pins where a run's blocking steps execute:
// a unit's Work runs on a process of its own, so it may wait on the
// clock. Unit "a" (1 s) waits in its Work for an event that unit "b"
// (5 s) fires in its own Work when it completes. Run inline in the timer
// callback, the wait would stall the advance loop under the rest of its
// batch, and the run could never finish.
func TestWorkMayBlockOnTheClock(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 4)
		um := NewUnitManager(s)
		um.AddPilot(p)
		bDone := vclock.NewEvent(v, "b completed")
		var aSettled time.Duration
		a := sleepUnit("a", 1)
		a.Work = func() error { bDone.Wait(); aSettled = v.Now(); return nil }
		b := sleepUnit("b", 5)
		b.Work = func() error { bDone.Fire(); return nil }
		units, err := um.Submit([]UnitDescription{a, b})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range um.WaitAll(units) {
			if st != UnitDone {
				t.Errorf("unit %s final state %v, want DONE", units[i].Name(), st)
			}
		}
		aStart, aStop, _ := units[0].ExecWindow()
		_, bStop, _ := units[1].ExecWindow()
		if aStop-aStart != time.Second {
			t.Errorf("unit a executed %v, want 1s: a blocked Work must not stretch the exec window", aStop-aStart)
		}
		if aSettled != bStop {
			t.Errorf("unit a's Work returned at %v, want b's completion at %v", aSettled, bStop)
		}
		p.Cancel()
	})
}

// TestRunsHoldNoGoroutines pins that a running unit costs no goroutine:
// with an 8,192-unit wave on a 4,096-core pilot, sampled from a timer
// callback while the first half executes and the second half waits, the
// process holds a handful of goroutines, not one per running unit.
func TestRunsHoldNoGoroutines(t *testing.T) {
	v := vclock.NewVirtual()
	s := NewSession(v, kernels.NewRegistry(), DefaultConfig())
	var goroutines, executing int
	v.Run(func() {
		pm := NewPilotManager(s)
		p, err := pm.Submit(PilotDescription{
			Resource: "xsede.stampede", Cores: 4096, Walltime: 100 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.WaitActive()
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, 8192)
		for i := range descs {
			descs[i] = sleepUnit("wave", 30)
		}
		units, err := um.Submit(descs)
		if err != nil {
			t.Fatal(err)
		}
		sampled := vclock.NewEvent(v, "sampled")
		v.After(10*time.Second, func() {
			goroutines = runtime.NumGoroutine()
			for _, u := range units {
				if u.State() == UnitExecuting {
					executing++
				}
			}
			sampled.Fire()
		})
		sampled.Wait()
		for _, st := range um.WaitAll(units) {
			if st != UnitDone {
				t.Fatalf("unit final state %v, want DONE", st)
			}
		}
		p.Cancel()
	})
	if executing != 4096 {
		t.Fatalf("%d units executing at the sample, want the pilot full (4096)", executing)
	}
	if goroutines >= 64 {
		t.Errorf("%d goroutines with 4096 units executing, want < 64", goroutines)
	}
}
