package vclock

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// TestTimerContract holds After's timer to one contract on every clock:
// Stop before the instant reports true and fn never runs, Stop after fn
// ran reports false, a second Stop reports false, and a zero duration
// fires. unit is one tick of the clock under test — a virtual second
// costs nothing, the wall clock gets milliseconds.
func TestTimerContract(t *testing.T) {
	clocks := []struct {
		name string
		v    Clock
		unit time.Duration
	}{
		{"handoff", NewVirtual(), time.Second},
		{"ref", newRefVirtual(), time.Second},
		{"wall", NewWall(), 10 * time.Millisecond},
	}
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			v, unit := c.v, c.unit
			var stopped, fired, zero atomic.Int32
			v.Run(func() {
				early := v.After(5*unit, func() { stopped.Add(1) })
				if !early.Stop() {
					t.Error("Stop before the instant reported false")
				}
				if early.Stop() {
					t.Error("second Stop reported true")
				}

				done := NewEvent(v, "timer fired")
				late := v.After(unit, func() { fired.Add(1); done.Fire() })
				done.Wait()
				if late.Stop() {
					t.Error("Stop after fn ran reported true")
				}

				ran := NewEvent(v, "zero timer fired")
				v.After(0, func() { zero.Add(1); ran.Fire() })
				ran.Wait()

				v.Sleep(6 * unit) // past the stopped timer's instant
			})
			if n := stopped.Load(); n != 0 {
				t.Errorf("stopped timer ran fn %d time(s)", n)
			}
			if fired.Load() != 1 || zero.Load() != 1 {
				t.Errorf("fired %d, zero-duration fired %d, want 1 and 1", fired.Load(), zero.Load())
			}
		})
	}
}

// TestStoppedTimerReleasesCallback: a stopped timer no longer holds what
// its callback captured. Something may keep the Timer itself for its
// whole duration: the Go runtime drops a stopped time.Timer from an idle
// P's heap only when that P next schedules, and the virtual wheel keeps a
// stopped node until its instant. An hour-long walltime guard must not
// pin its session's pilot and profiler all that time.
func TestStoppedTimerReleasesCallback(t *testing.T) {
	arm := func(v Clock) (*Timer, weak.Pointer[[1 << 10]byte]) {
		state := new([1 << 10]byte)
		return v.After(time.Hour, func() { state[0]++ }), weak.Make(state)
	}
	for _, c := range []struct {
		name string
		v    Clock
	}{{"handoff", NewVirtual()}, {"ref", newRefVirtual()}, {"wall", NewWall()}} {
		t.Run(c.name, func(t *testing.T) {
			var tm *Timer
			var held weak.Pointer[[1 << 10]byte]
			c.v.Run(func() {
				tm, held = arm(c.v)
				tm.Stop()
			})
			runtime.GC()
			if held.Value() != nil {
				t.Error("a stopped timer still holds its callback's captures")
			}
			runtime.KeepAlive(tm)
		})
	}
}

// TestStoppedVirtualTimerKeepsItsInstant pins the half of the contract
// simulations depend on: a stopped virtual timer's process still sleeps
// to its instant, so the clock drains to exactly where it would have
// without the Stop — stopping a guard cannot move a timeline.
func TestStoppedVirtualTimerKeepsItsInstant(t *testing.T) {
	for _, e := range engines {
		end := func(stop bool) time.Duration {
			v := e.new()
			var ran atomic.Bool
			v.Run(func() {
				tm := v.After(90*time.Second, func() { ran.Store(true) })
				if stop {
					tm.Stop()
				}
				v.Sleep(time.Second)
			})
			// Run returned at t=1s; the timer process is what carries
			// the clock on to its instant once nothing else is runnable.
			deadline := time.Now().Add(5 * time.Second)
			for (v.Now() < 90*time.Second || ran.Load() == stop) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if ran.Load() == stop {
				t.Errorf("%s: stop=%v but fn ran=%v", e.name, stop, ran.Load())
			}
			return v.Now()
		}
		if armed, stopped := end(false), end(true); armed != stopped || stopped != 90*time.Second {
			t.Errorf("%s: clock drained to %v armed, %v stopped; want 1m30s both", e.name, armed, stopped)
		}
	}
}

// TestAfterCallbacksRunInlineInArmOrder pins the virtual engine's timer
// design: a pending After is a wheel node, not a process, so arming 10k
// of them starts no goroutine, and callbacks sharing one deadline run in
// the order they were armed, all at that instant.
func TestAfterCallbacksRunInlineInArmOrder(t *testing.T) {
	const n = 10000
	v := NewVirtual()
	var order []int
	var grew int
	v.Run(func() {
		before := runtime.NumGoroutine()
		for i := 0; i < n; i++ {
			v.After(time.Second, func() {
				if v.Now() != time.Second {
					t.Errorf("callback %d ran at %v, want 1s", i, v.Now())
				}
				order = append(order, i)
			})
		}
		grew = runtime.NumGoroutine() - before
		v.Sleep(2 * time.Second)
	})
	// A few goroutines of the runtime's or the test framework's own may
	// come and go; a process per timer would add ten thousand.
	if grew > 8 {
		t.Errorf("arming %d timers grew the goroutine count by %d", n, grew)
	}
	if len(order) != n {
		t.Fatalf("%d of %d callbacks ran", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("callback %d ran in position %d: same-deadline callbacks must run in arm order", got, i)
		}
	}
}

// TestAfterZeroFromCallbackFiresSameInstant: a callback that arms
// After(0, fn) gets fn at its own instant, before the clock moves on to
// the next pending timer — here one a nanosecond later.
func TestAfterZeroFromCallbackFiresSameInstant(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var mu sync.Mutex
		var at atomic.Int64
		var log []string
		note := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
		v.Run(func() {
			v.After(5*time.Second, func() {
				v.After(0, func() { at.Store(int64(v.Now())); note("zero") })
			})
			v.After(5*time.Second+1, func() { note("next") })
			v.Sleep(10 * time.Second)
		})
		if got := time.Duration(at.Load()); got != 5*time.Second {
			t.Errorf("After(0) from a callback fired at %v, want 5s", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if want := []string{"zero", "next"}; !slices.Equal(log, want) {
			t.Errorf("firing order %v, want %v", log, want)
		}
	})
}

// TestAfterCallbackReleasesParkedProcess: a callback that fires an Event
// releases the process parked on it at the callback's instant.
func TestAfterCallbackReleasesParkedProcess(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var woke time.Duration
		v.Run(func() {
			ev := NewEvent(v, "released by a callback")
			v.After(3*time.Second, ev.Fire)
			ev.Wait()
			woke = v.Now()
		})
		if woke != 3*time.Second {
			t.Errorf("parked process woke at %v, want 3s", woke)
		}
	})
}

// TestBlockingAfterCallbackPanics: a callback runs inside the advance
// loop, so one that blocks on the clock would let time move under the
// rest of its batch. The engine reports it instead.
func TestBlockingAfterCallbackPanics(t *testing.T) {
	v := NewVirtual()
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		v.Run(func() {
			v.After(time.Second, func() { v.Sleep(time.Second) })
			v.Sleep(5 * time.Second)
		})
		return nil
	}()
	if s, _ := msg.(string); !strings.Contains(s, "After callback blocked") {
		t.Fatalf("blocking callback: recovered %v, want the blocked-callback panic", msg)
	}
}
