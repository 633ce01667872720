package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// engines lists every engine the parity suite runs on.
var engines = []Engine{EngineHandoff, EngineRef}

// forEachEngine runs fn as a subtest per engine.
func forEachEngine(t *testing.T, fn func(t *testing.T, v *Virtual)) {
	for _, e := range engines {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			fn(t, NewVirtualEngine(e))
		})
	}
}

func TestEngineKind(t *testing.T) {
	if got := NewVirtual().EngineKind(); got != EngineHandoff {
		t.Fatalf("default engine = %v, want handoff", got)
	}
	if got := NewVirtualEngine(EngineRef).EngineKind(); got != EngineRef {
		t.Fatalf("NewVirtualEngine(EngineRef) = %v", got)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("ParseEngine accepted junk")
	}
	for _, e := range engines {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
}

// TestEngineSleepOrdering: wake order and final time match on both
// engines for out-of-order sleepers.
func TestEngineSleepOrdering(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var mu sync.Mutex
		var order []time.Duration
		v.Run(func() {
			wg := NewWaitGroup(v, "sleepers")
			for _, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
				d := d
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					v.Sleep(d)
					mu.Lock()
					order = append(order, v.Now())
					mu.Unlock()
				})
			}
			wg.Wait()
		})
		want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("wakeup %d at %v, want %v", i, order[i], want[i])
			}
		}
	})
}

// TestEngineSimultaneousBatch: all same-deadline timers fire together.
func TestEngineSimultaneousBatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		const n = 300
		var fired int
		var mu sync.Mutex
		v.Run(func() {
			wg := NewWaitGroup(v, "simul")
			for i := 0; i < n; i++ {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					v.Sleep(time.Second)
					mu.Lock()
					fired++
					mu.Unlock()
				})
			}
			wg.Wait()
		})
		if fired != n || v.Now() != time.Second {
			t.Fatalf("fired=%d now=%v, want %d at 1s", fired, v.Now(), n)
		}
	})
}

// TestEngineWheelSpread exercises every wheel level: deadlines from
// microseconds to days, plus an overflow-range sleeper beyond the top
// level's horizon, all on one clock.
func TestEngineWheelSpread(t *testing.T) {
	durs := []time.Duration{
		10 * time.Microsecond, 500 * time.Microsecond, // below one base tick
		3 * time.Millisecond, 200 * time.Millisecond, // level 0-1
		5 * time.Second, 90 * time.Second, // level 1-2
		2 * time.Hour, 3 * 24 * time.Hour, // level 2-3
		60 * 24 * time.Hour, // level 4
		400000 * time.Hour,  // ~45 years: overflow list
	}
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var mu sync.Mutex
		got := make(map[time.Duration]time.Duration)
		v.Run(func() {
			wg := NewWaitGroup(v, "spread")
			for _, d := range durs {
				d := d
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					v.Sleep(d)
					mu.Lock()
					got[d] = v.Now()
					mu.Unlock()
				})
			}
			wg.Wait()
		})
		for _, d := range durs {
			if got[d] != d {
				t.Errorf("sleeper(%v) woke at %v", d, got[d])
			}
		}
	})
}

// TestEngineRepeatedDeadlineReuse re-sleeps the same durations many times
// so wheel buckets are reused, cascaded, and refilled across advances.
func TestEngineRepeatedDeadlineReuse(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		var total time.Duration
		v.Run(func() {
			wg := NewWaitGroup(v, "reuse")
			for p := 0; p < 8; p++ {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						v.Sleep(250 * time.Millisecond)
					}
				})
			}
			wg.Wait()
			total = v.Now()
		})
		if want := 200 * 250 * time.Millisecond; total != want {
			t.Fatalf("clock at %v, want %v", total, want)
		}
	})
}

// TestEngineDeadlockParity: both engines detect the deadlock, report the
// same shape, and stay inspectable afterwards.
func TestEngineDeadlockParity(t *testing.T) {
	for _, e := range engines {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			v := NewVirtualEngine(e)
			done := make(chan interface{}, 1)
			go func() {
				defer func() { done <- recover() }()
				v.Run(func() {
					sem := NewSemaphore(v, "starved", 1)
					v.Go(func() {
						NewEvent(v, "never-fired").Wait()
					})
					// Sleep so the event waiter parks first: the deadlock
					// panic is raised on whichever process blocks last —
					// here the Run caller, where it is recoverable.
					v.Sleep(time.Second)
					sem.Acquire(5)
				})
			}()
			var r interface{}
			select {
			case r = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("deadlock panic did not unwind")
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic payload %T: %v", r, r)
			}
			for _, want := range []string{
				"deadlock", "2 blocked waiter(s)",
				"event never-fired", "semaphore starved (acquire 5, avail 1)",
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: deadlock report missing %q:\n%s", e, want, msg)
				}
			}
			if got := v.Now(); got != time.Second {
				t.Errorf("clock at %v after deadlock, want 1s", got)
			}
		})
	}
}

// TestEnginePrimitiveMix drives the three primitives on both engines with a
// virtually deterministic workload (contended arrivals are staggered onto
// distinct instants, so FIFO service order is fixed by simulated time,
// not the real scheduler) and checks the simulated end state matches
// exactly.
func TestEnginePrimitiveMix(t *testing.T) {
	type result struct {
		now    time.Duration
		served []int
	}
	run := func(e Engine) result {
		v := NewVirtualEngine(e)
		var res result
		var mu sync.Mutex
		v.Run(func() {
			sem := NewSemaphore(v, "mix", 2)
			ev := NewEvent(v, "go")
			prod := NewWaitGroup(v, "producers")
			for i := 0; i < 6; i++ {
				i := i
				prod.Add(1)
				v.Go(func() {
					defer prod.Done()
					ev.Wait()
					// Distinct arrival instants: semaphore FIFO order is
					// then determined by virtual time on both engines.
					v.Sleep(time.Duration(i+1) * 100 * time.Millisecond)
					sem.Acquire(1)
					v.Sleep(time.Second)
					mu.Lock()
					res.served = append(res.served, i)
					mu.Unlock()
					sem.Release(1)
				})
			}
			v.Sleep(time.Second)
			ev.Fire()
			prod.Wait()
		})
		res.now = v.Now()
		return res
	}
	a, b := run(EngineHandoff), run(EngineRef)
	if a.now != b.now {
		t.Fatalf("final time differs: handoff %v, ref %v", a.now, b.now)
	}
	if fmt.Sprint(a.served) != fmt.Sprint(b.served) {
		t.Fatalf("activity differs:\nhandoff %+v\nref     %+v", a, b)
	}
}

// TestEngineTieSoak runs a fixed-seed tie-heavy workload on both engines
// and demands identical wake traces: the sequence of distinct wake
// instants with the sorted process ids woken at each instant. Ties
// collapse to one entry, so the trace is independent of goroutine
// interleave within an instant but pins the engines' virtual-time
// evolution — including equal-deadline batching — exactly.
func TestEngineTieSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a := runSoak(EngineHandoff, seed)
		b := runSoak(EngineRef, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: handoff %d, ref %d\nhandoff: %v\nref: %v",
				seed, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at step %d:\nhandoff: %s\nref:     %s",
					seed, i, a[i], b[i])
			}
		}
	}
}

// runSoak executes the fixed-seed tie-heavy workload on one engine and
// returns its wake trace. The workload is virtually deterministic —
// sleeps and full barriers only, so every wake instant is a function of
// the script, not of real-time races — while producing dense
// equal-deadline ties (durations drawn from a tiny set, and a barrier —
// a WaitGroup everyone arrives on, then an Event the root fires —
// re-synchronising everyone every few steps).
func runSoak(e Engine, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	const procs = 24
	const rounds = 5
	durSet := []time.Duration{
		10 * time.Millisecond, 10 * time.Millisecond, // weighted for ties
		25 * time.Millisecond, 100 * time.Millisecond, time.Second,
	}
	steps := make([][][]time.Duration, procs)
	for i := range steps {
		steps[i] = make([][]time.Duration, rounds)
		for r := 0; r < rounds; r++ {
			k := 1 + rng.Intn(4)
			for j := 0; j < k; j++ {
				steps[i][r] = append(steps[i][r], durSet[rng.Intn(len(durSet))])
			}
		}
	}

	type obs struct {
		at time.Duration
		id int
	}
	var mu sync.Mutex
	var log []obs
	v := NewVirtualEngine(e)
	v.Run(func() {
		arrived := make([]*WaitGroup, rounds)
		open := make([]*Event, rounds)
		for r := range arrived {
			arrived[r] = NewWaitGroup(v, fmt.Sprintf("soak round %d", r))
			arrived[r].Add(procs)
			open[r] = NewEvent(v, fmt.Sprintf("soak round %d", r))
		}
		wg := NewWaitGroup(v, "soak")
		for i := 0; i < procs; i++ {
			i := i
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, d := range steps[i][r] {
						v.Sleep(d)
						mu.Lock()
						log = append(log, obs{v.Now(), i})
						mu.Unlock()
					}
					arrived[r].Done()
					open[r].Wait()
				}
			})
		}
		for r := range arrived {
			arrived[r].Wait()
			open[r].Fire()
		}
		wg.Wait()
	})

	// Group observations by instant; sort ids within an instant (their
	// real-time interleave is scheduler noise on both engines).
	byAt := make(map[time.Duration][]int)
	var ats []time.Duration
	for _, o := range log {
		if _, seen := byAt[o.at]; !seen {
			ats = append(ats, o.at)
		}
		byAt[o.at] = append(byAt[o.at], o.id)
	}
	// Observation instants arrive in nondecreasing virtual time per
	// process but interleave across processes; sort the distinct times.
	for i := 1; i < len(ats); i++ {
		for j := i; j > 0 && ats[j] < ats[j-1]; j-- {
			ats[j], ats[j-1] = ats[j-1], ats[j]
		}
	}
	var trace []string
	for _, at := range ats {
		ids := byAt[at]
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		trace = append(trace, fmt.Sprintf("t=%v ids=%v", at, ids))
	}
	return trace
}
