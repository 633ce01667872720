package vclock

import (
	"sync/atomic"
	"testing"
	"time"
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
