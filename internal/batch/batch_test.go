package batch

import (
	"sync"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// testMachine returns a small machine with a deterministic queue model:
// wait = 10s + 1s/node.
func testMachine() *cluster.Machine {
	return &cluster.Machine{
		Name:             "test.machine",
		Nodes:            4,
		CoresPerNode:     10,
		MemPerNodeGB:     16,
		FSBandwidthMBps:  100,
		QueueWaitBase:    10 * time.Second,
		QueueWaitPerNode: time.Second,
	}
}

func newSys(t *testing.T, v *vclock.Virtual, p Policy) *System {
	t.Helper()
	s, err := NewSystem(v, testMachine(), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// watched is a submitted job plus the events its lifecycle callbacks
// fire, so a test process can wait for its start and its end.
type watched struct {
	*Job
	started, ended *vclock.Event
}

// submit submits req with callbacks that fire the returned job's events.
// A job that ends while still queued fires both, so WaitStart never
// blocks past the end.
func submit(s *System, req Request) (*watched, error) {
	w := &watched{
		started: vclock.NewEvent(s.v, req.Name+" start"),
		ended:   vclock.NewEvent(s.v, req.Name+" end"),
	}
	req.OnStart = func(*Job) { w.started.Fire() }
	req.OnEnd = func(*Job) {
		w.started.Fire()
		w.ended.Fire()
	}
	j, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	w.Job = j
	return w, nil
}

// WaitStart blocks the calling process until the job leaves Pending. On
// return the job is Running or already final.
func (w *watched) WaitStart() { w.started.Wait() }

// WaitEnd blocks the calling process until the job is final and returns
// that state.
func (w *watched) WaitEnd() State {
	w.ended.Wait()
	return w.State()
}

func TestSubmitValidation(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, FIFO)
	v.Run(func() {
		if _, err := submit(s, Request{Name: "a", Cores: 0, Walltime: time.Hour}); err == nil {
			t.Error("zero cores accepted")
		}
		if _, err := submit(s, Request{Name: "b", Cores: 10, Walltime: 0}); err == nil {
			t.Error("zero walltime accepted")
		}
		if _, err := submit(s, Request{Name: "c", Cores: 1000, Walltime: time.Hour}); err == nil {
			t.Error("oversized job accepted")
		}
	})
}

func TestJobLifecycleAndQueueWait(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, FIFO)
	v.Run(func() {
		// 15 cores => 2 nodes => wait 10s + 2s = 12s.
		j, err := submit(s, Request{Name: "job", Cores: 15, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != Pending {
			t.Fatalf("state after submit = %v", j.State())
		}
		j.WaitStart()
		if j.State() != Running {
			t.Fatalf("state after start = %v", j.State())
		}
		if got := j.QueueWait(); got != 12*time.Second {
			t.Errorf("queue wait = %v, want 12s", got)
		}
		if got := s.FreeNodes(); got != 2 {
			t.Errorf("free nodes while running = %d, want 2", got)
		}
		v.Sleep(30 * time.Second)
		j.Finish()
		if st := j.WaitEnd(); st != Completed {
			t.Errorf("final state = %v, want COMPLETED", st)
		}
		if got := j.Runtime(); got != 30*time.Second {
			t.Errorf("runtime = %v, want 30s", got)
		}
		if got := s.FreeNodes(); got != 4 {
			t.Errorf("free nodes after finish = %d, want 4", got)
		}
	})
}

func TestWalltimeKill(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, FIFO)
	v.Run(func() {
		j, _ := submit(s, Request{Name: "long", Cores: 10, Walltime: time.Minute})
		j.WaitStart()
		if st := j.WaitEnd(); st != TimedOut {
			t.Errorf("final state = %v, want TIMEOUT", st)
		}
		if got := j.Runtime(); got != time.Minute {
			t.Errorf("runtime = %v, want 1m", got)
		}
		// Finish after kill is a no-op.
		j.Finish()
		if j.State() != TimedOut {
			t.Error("Finish resurrected a timed-out job")
		}
	})
}

func TestCancelPendingAndRunning(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, FIFO)
	v.Run(func() {
		p, _ := submit(s, Request{Name: "pending", Cores: 10, Walltime: time.Hour})
		p.Cancel()
		if st := p.WaitEnd(); st != Cancelled {
			t.Errorf("pending cancel state = %v", st)
		}
		p.WaitStart() // must not block after cancel

		r, _ := submit(s, Request{Name: "running", Cores: 10, Walltime: time.Hour})
		r.WaitStart()
		r.Cancel()
		if st := r.WaitEnd(); st != Cancelled {
			t.Errorf("running cancel state = %v", st)
		}
		if got := s.FreeNodes(); got != 4 {
			t.Errorf("free nodes after cancels = %d, want 4", got)
		}
	})
}

// TestQueuedJobEndRecordedOnce ends a still-queued job each way a job
// can leave the queue without starting, and checks its trace: job_submit
// and exactly one job_end, no job_start — also when the call repeats.
func TestQueuedJobEndRecordedOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		end   func(*Job)
		final State
	}{
		{"cancel", (*Job).Cancel, Cancelled},
		{"expire", (*Job).Expire, TimedOut},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := vclock.NewVirtual()
			s := newSys(t, v, FIFO)
			prof := profile.New(v)
			s.SetProfiler(prof)
			v.Run(func() {
				j, _ := submit(s, Request{Name: "queued", Cores: 10, Walltime: time.Hour})
				v.Sleep(time.Second) // still inside its 11 s queue wait
				tc.end(j.Job)
				tc.end(j.Job)
				if st := j.WaitEnd(); st != tc.final {
					t.Errorf("state = %v, want %v", st, tc.final)
				}
				if got := s.QueueLength(); got != 0 {
					t.Errorf("queue length %d after the job left it", got)
				}
			})
			for ev, want := range map[string]int{"job_submit": 1, "job_start": 0, "job_end": 1} {
				if got := prof.Count("job.0001", ev); got != want {
					t.Errorf("%s recorded %d times, want %d", ev, got, want)
				}
			}
			if at, ok := prof.First("job.0001", "job_end"); !ok || at != time.Second {
				t.Errorf("job_end at %v (%v), want 1s", at, ok)
			}
		})
	}
}

func TestFIFOBlocksBehindBigJob(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, FIFO)
	starts := make(map[string]time.Duration)
	var mu sync.Mutex
	v.Run(func() {
		// hog takes the whole machine for 100s.
		hog, _ := submit(s, Request{Name: "hog", Cores: 40, Walltime: 100 * time.Second})
		hog.WaitStart()
		// big needs 3 nodes: cannot start until hog ends.
		big, _ := submit(s, Request{Name: "big", Cores: 30, Walltime: 10 * time.Second})
		// small fits in 0 free nodes? No: 1 node needed, 0 free. Queued
		// behind big under FIFO even though it would fit sooner.
		small, _ := submit(s, Request{Name: "small", Cores: 5, Walltime: 5 * time.Second})
		wg := vclock.NewWaitGroup(v, "jobs")
		for _, jn := range []struct {
			j *watched
			n string
		}{{big, "big"}, {small, "small"}} {
			jn := jn
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				jn.j.WaitStart()
				mu.Lock()
				starts[jn.n] = v.Now()
				mu.Unlock()
				jn.j.Finish()
			})
		}
		wg.Wait()
	})
	// FIFO means small must never start before big in virtual time (both
	// may start at the same instant once the hog frees the machine —
	// observation order within an instant is scheduler noise, not FIFO).
	bs, bok := starts["big"]
	ss, sok := starts["small"]
	if !bok || !sok {
		t.Fatalf("starts recorded: %v, want both jobs", starts)
	}
	if ss < bs {
		t.Fatalf("small started at %v before big at %v under FIFO", ss, bs)
	}
	if bs < 100*time.Second {
		t.Fatalf("big started at %v, before the hog ended at 100s", bs)
	}
}

func TestEASYBackfillLetsSmallJobJump(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, EASYBackfill)
	var smallStart, bigStart time.Duration
	v.Run(func() {
		// hog: 3 of 4 nodes for 1000s.
		hog, _ := submit(s, Request{Name: "hog", Cores: 30, Walltime: 1000 * time.Second})
		hog.WaitStart()
		// big: needs all 4 nodes; must wait for hog (shadow = hog end).
		big, _ := submit(s, Request{Name: "big", Cores: 40, Walltime: 10 * time.Second})
		// small: 1 node, 60s; fits now and ends well before the shadow
		// time, so EASY lets it jump the queue.
		small, _ := submit(s, Request{Name: "small", Cores: 10, Walltime: 60 * time.Second})
		wg := vclock.NewWaitGroup(v, "jobs")
		wg.Add(2)
		v.Go(func() {
			defer wg.Done()
			small.WaitStart()
			smallStart = v.Now()
			v.Sleep(time.Second)
			small.Finish()
		})
		v.Go(func() {
			defer wg.Done()
			big.WaitStart()
			bigStart = v.Now()
			big.Finish()
		})
		wg.Wait()
	})
	if smallStart >= bigStart {
		t.Fatalf("small started at %v, big at %v: backfill did not happen", smallStart, bigStart)
	}
	if bigStart < 1000*time.Second {
		t.Fatalf("big started at %v, before hog's walltime", bigStart)
	}
}

func TestBackfillNeverDelaysHead(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, EASYBackfill)
	var bigStart time.Duration
	v.Run(func() {
		hog, _ := submit(s, Request{Name: "hog", Cores: 30, Walltime: 500 * time.Second})
		hog.WaitStart()
		big, _ := submit(s, Request{Name: "big", Cores: 40, Walltime: 10 * time.Second})
		// wide wants 1 node for 10000s: it fits now, but running it past
		// the shadow time (hog end) would delay big. EASY must refuse.
		wide, _ := submit(s, Request{Name: "wide", Cores: 10, Walltime: 10000 * time.Second})
		wg := vclock.NewWaitGroup(v, "jobs")
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			big.WaitStart()
			bigStart = v.Now()
			big.Finish()
		})
		wg.Wait()
		wide.Cancel()
	})
	// hog walltime-kills at its submit eligibility (10+3=13s) + 500s.
	wantLatest := 513*time.Second + time.Second
	if bigStart > wantLatest {
		t.Fatalf("big started at %v: a backfilled job delayed the queue head", bigStart)
	}
}

// Invariant: free nodes never negative, never exceed the machine, and
// concurrent running jobs never oversubscribe.
func TestNoOversubscriptionUnderChurn(t *testing.T) {
	v := vclock.NewVirtual()
	s := newSys(t, v, EASYBackfill)
	const jobs = 30
	v.Run(func() {
		wg := vclock.NewWaitGroup(v, "churn")
		for i := 0; i < jobs; i++ {
			i := i
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				cores := 5 + (i%4)*10 // 5..35 cores => 1..4 nodes
				dur := time.Duration(1+i%7) * time.Second
				j, err := submit(s, Request{Name: "churn", Cores: cores, Walltime: time.Hour})
				if err != nil {
					t.Error(err)
					return
				}
				j.WaitStart()
				if free := s.FreeNodes(); free < 0 || free > 4 {
					t.Errorf("free nodes out of range: %d", free)
				}
				v.Sleep(dur)
				j.Finish()
			})
		}
		wg.Wait()
		if got := s.FreeNodes(); got != 4 {
			t.Errorf("free nodes after drain = %d, want 4", got)
		}
		if s.QueueLength() != 0 || s.RunningCount() != 0 {
			t.Errorf("leftover queue=%d running=%d", s.QueueLength(), s.RunningCount())
		}
	})
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || EASYBackfill.String() != "easy-backfill" {
		t.Error("policy strings wrong")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy string empty")
	}
	for _, st := range []State{Pending, Running, Completed, TimedOut, Cancelled, State(99)} {
		if st.String() == "" {
			t.Error("empty state string")
		}
	}
	if Completed.Final() != true || Pending.Final() != false || Running.Final() != false {
		t.Error("Final() wrong")
	}
}

// Finish marks the payload complete, releasing the allocation: the
// simulation's stand-in for the job script exiting. Calling it when the
// job is not running is a no-op.
func (j *Job) Finish() { j.sys.endJob(j, Completed) }

// Final reports whether s is a terminal state.
func (s State) Final() bool { return s == Completed || s == TimedOut || s == Cancelled }

// QueueWait returns how long the job waited in the queue; valid once
// started.
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started - j.submitted
}

// Runtime returns how long the job ran; valid once final.
func (j *Job) Runtime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started == 0 && j.state == Cancelled {
		return 0
	}
	return j.ended - j.started
}

// FreeNodes returns the currently unallocated node count.
func (s *System) FreeNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeNodes
}

// QueueLength returns the number of pending jobs.
func (s *System) QueueLength() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// RunningCount returns the number of running jobs.
func (s *System) RunningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}
