package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// engines lists every engine the parity suite runs on: the product's
// virtual engine (virtual.go) and the reference engine
// (ref_engine_test.go). The product engine keeps its former subtest
// name, "handoff", so test ids stay stable across the engine's rename.
var engines = []struct {
	name string
	new  func() *Virtual
}{
	{"handoff", NewVirtual},
	{"ref", newRefVirtual},
}

// forEachEngine runs fn as a subtest per engine.
func forEachEngine(t *testing.T, fn func(t *testing.T, v *Virtual)) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			fn(t, e.new())
		})
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
		t.Run(e.name, func(t *testing.T) {
			v := e.new()
			done := make(chan interface{}, 1)
			go func() {
				defer func() { done <- recover() }()
				v.Run(func() {
					sem := NewSemaphore(v, "starved", 1)
					v.Go(func() {
						NewEvent(v, "never-fired").Wait()
					})
					// The event waiter parks at t=0 (the clock cannot
					// pass a runnable process), so the Run caller blocks
					// last, at 1s. The deadlock panic is raised on the
					// process that blocked last — here the Run caller,
					// where it is recoverable — even when the waiter is
					// still in its advance loop when the caller blocks.
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
					t.Errorf("%s: deadlock report missing %q:\n%s", e.name, want, msg)
				}
			}
			if got := v.Now(); got != time.Second {
				t.Errorf("clock at %v after deadlock, want 1s", got)
			}
		})
	}
}

// TestEngineWakeRace races wakes against parks at one instant: per round,
// waiters on an Event race its Fire, and acquirers on a permit-less
// Semaphore race the releases the woken waiters make. A wake may land
// before its park; the run must still drain to quiescence at that
// instant, and a deliberate deadlock afterwards must report its one
// blocked waiter and no entry a raced wake left behind.
func TestEngineWakeRace(t *testing.T) {
	forEachEngine(t, func(t *testing.T, v *Virtual) {
		const procs, rounds = 64, 100
		done := make(chan interface{}, 1)
		go func() {
			defer func() { done <- recover() }()
			v.Run(func() {
				v.Sleep(time.Second)
				for r := 0; r < rounds; r++ {
					ev := NewEvent(v, fmt.Sprintf("race %d", r))
					sem := NewSemaphore(v, fmt.Sprintf("race %d", r), 0)
					wg := NewWaitGroup(v, fmt.Sprintf("race %d", r))
					wg.Add(2 * procs)
					for i := 0; i < procs; i++ {
						v.Go(func() {
							defer wg.Done()
							sem.Acquire(1)
						})
						v.Go(func() {
							defer wg.Done()
							ev.Wait()
							sem.Release(1)
						})
						if i == procs/2 {
							v.Go(ev.Fire)
						}
					}
					wg.Wait()
				}
			})
		}()
		select {
		case r := <-done:
			if r != nil {
				t.Fatalf("wake race did not drain: %v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("wake race did not drain")
		}
		if got := v.Now(); got != time.Second {
			t.Fatalf("clock at %v after the race, want 1s", got)
		}

		// The racers' processes may still be exiting when Run returns;
		// the clock cannot pass the sleep until every one has, so the
		// Wait below blocks last and its Run caller gets the report.
		deadlock := make(chan interface{}, 1)
		go func() {
			defer func() { deadlock <- recover() }()
			v.Run(func() {
				v.Sleep(time.Second)
				NewEvent(v, "never-fired").Wait()
			})
		}()
		var r interface{}
		select {
		case r = <-deadlock:
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock panic did not unwind")
		}
		msg, _ := r.(string)
		for _, want := range []string{"deadlock at t=2s", "1 blocked waiter(s)", "event never-fired"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report missing %q:\n%v", want, r)
			}
		}
	})
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
	run := func(newV func() *Virtual) result {
		v := newV()
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
	a, b := run(NewVirtual), run(newRefVirtual)
	if a.now != b.now {
		t.Fatalf("final time differs: virtual %v, ref %v", a.now, b.now)
	}
	if fmt.Sprint(a.served) != fmt.Sprint(b.served) {
		t.Fatalf("activity differs:\nvirtual %+v\nref     %+v", a, b)
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
		a := runSoak(NewVirtual, seed)
		b := runSoak(newRefVirtual, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: virtual %d, ref %d\nvirtual: %v\nref: %v",
				seed, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at step %d:\nvirtual: %s\nref:     %s",
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
func runSoak(newV func() *Virtual, seed int64) []string {
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
	v := newV()
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
