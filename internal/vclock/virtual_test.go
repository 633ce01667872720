package vclock

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWallClockMonotonic(t *testing.T) {
	r := NewWall()
	a := r.Now()
	r.Sleep(time.Millisecond)
	b := r.Now()
	if b < a {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
	r.Sleep(-time.Second) // must not block
}

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if got := v.Now(); got != 0 {
		t.Fatalf("new virtual clock at %v, want 0", got)
	}
}

func TestSleepAdvancesExactly(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		v.Sleep(5 * time.Second)
		if got := v.Now(); got != 5*time.Second {
			t.Errorf("after Sleep(5s) clock at %v", got)
		}
		v.Sleep(2500 * time.Millisecond)
		if got := v.Now(); got != 7500*time.Millisecond {
			t.Errorf("after second sleep clock at %v", got)
		}
	})
}

func TestSleepNonPositiveReturnsImmediately(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Hour)
		if got := v.Now(); got != 0 {
			t.Errorf("non-positive sleeps advanced clock to %v", got)
		}
	})
}

func TestConcurrentSleepersWakeInOrder(t *testing.T) {
	v := NewVirtual()
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
	if len(order) != len(want) {
		t.Fatalf("got %d wakeups, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("wakeup %d at %v, want %v", i, order[i], want[i])
		}
	}
}

func TestSimultaneousTimersAllFire(t *testing.T) {
	v := NewVirtual()
	const n = 50
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
	if fired != n {
		t.Fatalf("%d timers fired, want %d", fired, n)
	}
	if got := v.Now(); got != time.Second {
		t.Fatalf("clock at %v, want 1s", got)
	}
}

func TestNestedSpawns(t *testing.T) {
	v := NewVirtual()
	var total time.Duration
	v.Run(func() {
		wg := NewWaitGroup(v, "outer")
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			v.Sleep(time.Second)
			inner := NewWaitGroup(v, "inner")
			inner.Add(1)
			v.Go(func() {
				defer inner.Done()
				v.Sleep(2 * time.Second)
			})
			inner.Wait()
		})
		wg.Wait()
		total = v.Now()
	})
	if total != 3*time.Second {
		t.Fatalf("nested spawn finished at %v, want 3s", total)
	}
}

func TestDeadlockPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "event never-fired") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	v.Run(func() {
		ev := NewEvent(v, "never-fired")
		ev.Wait()
	})
}

// Regression: the deadlock panic must be recoverable from the Run caller
// without self-deadlocking on the engine mutex (Run's deferred exit used
// to re-lock the mutex the panicking goroutine still held), and the
// engine must stay usable enough afterwards to be inspected.
func TestDeadlockPanicIsRecoverable(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		v.Run(func() {
			NewEvent(v, "stuck").Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock panic did not unwind: engine self-deadlocked")
	}
	// Post-mortem inspection must not hang or panic.
	if got := v.Now(); got != 0 {
		t.Errorf("clock at %v after deadlock, want 0", got)
	}
}

func TestEventBroadcast(t *testing.T) {
	v := NewVirtual()
	const n = 10
	var woke int
	var mu sync.Mutex
	v.Run(func() {
		ev := NewEvent(v, "go")
		wg := NewWaitGroup(v, "waiters")
		for i := 0; i < n; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				ev.Wait()
				mu.Lock()
				woke++
				mu.Unlock()
			})
		}
		v.Sleep(time.Second)
		if ev.Fired() {
			t.Error("event fired prematurely")
		}
		ev.Fire()
		ev.Fire() // double fire is a no-op
		wg.Wait()
		ev.Wait() // post-fire wait returns immediately
	})
	if woke != n {
		t.Fatalf("%d waiters woke, want %d", woke, n)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	v := NewVirtual()
	const permits = 3
	const tasks = 10
	var cur, peak int
	var mu sync.Mutex
	v.Run(func() {
		sem := NewSemaphore(v, "limit", permits)
		wg := NewWaitGroup(v, "tasks")
		for i := 0; i < tasks; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				sem.Acquire(1)
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				v.Sleep(time.Second)
				mu.Lock()
				cur--
				mu.Unlock()
				sem.Release(1)
			})
		}
		wg.Wait()
	})
	if peak > permits {
		t.Fatalf("peak concurrency %d exceeded %d permits", peak, permits)
	}
	// 10 tasks, 3 permits, 1s each => ceil(10/3) = 4 virtual seconds.
	if got := v.Now(); got != 4*time.Second {
		t.Fatalf("semaphore-limited run took %v, want 4s", got)
	}
}

func TestSemaphoreFIFONoStarvation(t *testing.T) {
	v := NewVirtual()
	var order []int
	var mu sync.Mutex
	v.Run(func() {
		sem := NewSemaphore(v, "fifo", 2)
		sem.Acquire(2)
		wg := NewWaitGroup(v, "waiters")
		// A large request queued first must be served before a small
		// later one (strict FIFO).
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			sem.Acquire(2)
			mu.Lock()
			order = append(order, 2)
			mu.Unlock()
			sem.Release(2)
		})
		v.Sleep(time.Second)
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			sem.Acquire(1)
			mu.Lock()
			order = append(order, 1)
			mu.Unlock()
			sem.Release(1)
		})
		v.Sleep(time.Second)
		sem.Release(2)
		wg.Wait()
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("service order %v, want [2 1]", order)
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		wg := NewWaitGroup(v, "zero")
		wg.Wait() // counter is 0: must not block
	})
}

func TestWaitGroupNegativePanics(t *testing.T) {
	v := NewVirtual()
	v.Run(func() {
		wg := NewWaitGroup(v, "neg")
		defer func() {
			if recover() == nil {
				t.Error("negative WaitGroup did not panic")
			}
		}()
		wg.Done()
	})
}

// Property: for any set of sleep durations, the clock ends at the maximum
// duration and every sleeper observes exactly its own duration.
func TestPropertySleepMaxIsTTC(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := NewVirtual()
		var max time.Duration
		ok := true
		var mu sync.Mutex
		v.Run(func() {
			wg := NewWaitGroup(v, "prop")
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				if d > max {
					max = d
				}
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					start := v.Now()
					v.Sleep(d)
					if v.Now()-start != d {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				})
			}
			wg.Wait()
		})
		return ok && v.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequential sleeps accumulate exactly.
func TestPropertySequentialSleepsAccumulate(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		v := NewVirtual()
		var sum time.Duration
		v.Run(func() {
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				sum += d
				v.Sleep(d)
			}
		})
		return v.Now() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: time never moves backwards as observed by any process under a
// randomized mix of sleeps and spawns.
func TestPropertyMonotonicTime(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		v := NewVirtual()
		var mu sync.Mutex
		var last time.Duration
		violated := false
		observe := func() {
			mu.Lock()
			now := v.Now()
			if now < last {
				violated = true
			}
			last = now
			mu.Unlock()
		}
		n := 2 + rng.Intn(10)
		steps := make([][]time.Duration, n)
		for i := range steps {
			k := 1 + rng.Intn(5)
			for j := 0; j < k; j++ {
				steps[i] = append(steps[i], time.Duration(rng.Intn(1000))*time.Millisecond)
			}
		}
		v.Run(func() {
			wg := NewWaitGroup(v, "mono")
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for _, d := range steps[i] {
						v.Sleep(d)
						observe()
					}
				})
			}
			wg.Wait()
		})
		if violated {
			t.Fatalf("trial %d: observed time going backwards", trial)
		}
	}
}
