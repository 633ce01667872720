package vclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// refEngine is the reference discrete-event core, a test oracle only:
// the seed's design of one global mutex, an integer runnable count, and
// a binary timer heap. Every operation — sleep, park, wake — serializes
// on mu, which makes the invariants easy to audit: the runnable count,
// the heap, and the blocked table can never be observed mid-update. The
// product's virtual engine (virtual.go) keeps the same lock and channel
// protocol; it differs in its timer store (a wheel, not a heap) and in
// running After callbacks inline rather than as a process per timer. The
// engine tests in this package and TestEngineReportParity
// (engine_parity_test.go) hold the virtual engine to it in simulated
// time; only wall-clock cost may differ. No product option selects it.
type refEngine struct {
	mu sync.Mutex
	// cur mirrors nowAtomic; the atomic copy lets now() — which sits on
	// the profiler's per-event hot path — avoid taking mu. Only advance()
	// writes time, under mu.
	cur       time.Duration
	nowAtomic atomic.Int64
	runnable  int
	timers    timerHeap
	seq       int64
	// blocked tracks processes blocked on non-timer primitives, keyed by
	// their waiter, for deadlock diagnostics. The descriptions are lazy
	// descSources so the (rare) deadlock report pays for formatting, not
	// every block on the hot path.
	blocked map[*waiter]descSource
	// dead marks the clock as having detected a deadlock; all further
	// accounting becomes a no-op so the panic can unwind (and deferred
	// exits can run) without corrupting or re-locking the engine.
	dead bool
}

func newRefEngine() *refEngine {
	return &refEngine{blocked: make(map[*waiter]descSource)}
}

// newRefVirtual returns a virtual clock backed by the reference engine.
func newRefVirtual() *Virtual { return &Virtual{eng: newRefEngine()} }

func (v *refEngine) now() time.Duration {
	return time.Duration(v.nowAtomic.Load())
}

// timerPool recycles timers (and their wake channels) across sleeps:
// simulations sleep millions of times, and the timer allocation was the
// single largest source of garbage in the engine.
var timerPool = sync.Pool{
	New: func() interface{} { return &timer{ch: make(chan struct{}, 1)} },
}

func (v *refEngine) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := timerPool.Get().(*timer)
	v.mu.Lock()
	t.deadline = v.cur + d
	t.seq = v.nextSeq()
	v.timers.push(t)
	v.becomeBlocked()
	v.mu.Unlock()
	<-t.ch
	timerPool.Put(t)
}

func (v *refEngine) register() {
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
}

func (v *refEngine) deregister() {
	v.mu.Lock()
	v.becomeBlocked()
	v.mu.Unlock()
}

// park transitions the calling process to blocked (recording src for the
// deadlock report), advances the clock if it was the last runnable
// process, and waits for the matching wake.
func (v *refEngine) park(w *waiter, src descSource) {
	v.mu.Lock()
	if src != nil {
		v.blocked[w] = src
	}
	v.becomeBlocked()
	v.mu.Unlock()
	<-w.ch
	if src != nil {
		v.mu.Lock()
		delete(v.blocked, w)
		v.mu.Unlock()
	}
}

// wake marks the process parked on w runnable again and signals it. The
// waker is itself a running registered process (or the advance loop), so
// the clock cannot be mid-jump.
func (v *refEngine) wake(w *waiter) {
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
	w.ch <- struct{}{} // never blocks: cap 1, exactly one parker
}

// after keeps the seed's process-per-timer design: a registered process
// sleeps to the instant and fires t. It is counted runnable from the
// moment after returns, so the clock can neither pass the instant nor
// fire it early; unlike the virtual engine's inline callbacks, t.fn runs
// as a process of its own.
func (v *refEngine) after(t *Timer, d time.Duration) {
	v.register()
	go func() {
		defer v.deregister()
		v.sleep(d)
		t.fire()
	}()
}

// nextSeq returns a fresh sequence number. Caller holds mu.
func (v *refEngine) nextSeq() int64 {
	v.seq++
	return v.seq
}

// becomeBlocked transitions the calling process from runnable to blocked
// and, if it was the last runnable process, advances the clock. Caller
// holds mu.
func (v *refEngine) becomeBlocked() {
	if v.dead {
		return
	}
	v.runnable--
	if v.runnable < 0 {
		panic(underflowPanic)
	}
	if v.runnable == 0 {
		v.advance()
	}
}

// advance jumps virtual time to the earliest pending timer deadline and
// fires every timer sharing that deadline. Caller holds mu, and the
// runnable count is zero. If there are no timers but blocked waiters
// remain, the simulation can never make progress: panic with diagnostics.
func (v *refEngine) advance() {
	for v.runnable == 0 {
		if len(v.timers) == 0 {
			if len(v.blocked) > 0 {
				// Fatal: no process can ever run again. Mark the engine
				// dead and release the mutex before panicking so that
				// deferred exits on the unwinding goroutine (Run's
				// deregister, callers' cleanup) do not self-deadlock on mu.
				descs := make([]string, 0, len(v.blocked))
				for w, src := range v.blocked {
					descs = append(descs, src.blockDesc(w))
				}
				msg := formatDeadlock(v.cur, descs)
				v.dead = true
				v.mu.Unlock()
				panic(msg)
			}
			return // simulation quiescent: all processes finished
		}
		deadline := v.timers[0].deadline
		if deadline < v.cur {
			panic("vclock: timer deadline in the past")
		}
		v.cur = deadline
		v.nowAtomic.Store(int64(deadline))
		for len(v.timers) > 0 && v.timers[0].deadline == deadline {
			t := v.timers.pop()
			v.runnable++
			t.ch <- struct{}{} // never blocks: cap 1, exactly one sleeper
		}
	}
}

// timer is a pending virtual-time wakeup. Timers are pooled: ch is a
// reusable capacity-1 channel signalled by send, not close.
type timer struct {
	deadline time.Duration
	seq      int64 // FIFO tiebreak among equal deadlines
	ch       chan struct{}
}

// timerHeap is a min-heap of timers ordered by (deadline, seq). It is a
// concrete implementation (no container/heap interface boxing): the heap
// sits on the engine's innermost loop.
type timerHeap []*timer

func (h timerHeap) less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

// push inserts t, sifting up.
func (h *timerHeap) push(t *timer) {
	*h = append(*h, t)
	s := *h
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if s.less(p, c) {
			break
		}
		s[p], s[c] = s[c], s[p]
		c = p
	}
}

// pop removes and returns the minimum timer.
func (h *timerHeap) pop() *timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	for c := 0; ; {
		l, r := 2*c+1, 2*c+2
		m := c
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == c {
			break
		}
		s[c], s[m] = s[m], s[c]
		c = m
	}
	return top
}
