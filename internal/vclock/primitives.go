package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The blocking primitives. Each primitive owns its waiter bookkeeping
// behind its own mutex and talks to the engine only through park/wake, so
// on the wall clock, where After callbacks run concurrently, two
// unrelated primitives never contend on a shared lock; settled-state
// reads (Event.Fired, a fired Wait, a zero WaitGroup Wait) are single
// atomic loads with no lock at all. The protocol every primitive follows:
//
//	block:  publish a waiter in the primitive's list (under its lock),
//	        release the lock, then park.
//	wake:   pop the waiter (under the lock), release the lock, then
//	        wake. Each waiter is woken exactly once.

// Event is a one-shot broadcast flag on a virtual clock, analogous to
// closing a channel. Wait blocks the calling process until Fire is called;
// once fired, Wait returns immediately forever after — a lockless atomic
// check.
type Event struct {
	v     Clock
	name  string
	latch Latch
}

// NewEvent returns an unfired Event. The name appears in deadlock reports.
func NewEvent(v Clock, name string) *Event {
	return &Event{v: v, name: name}
}

// Fired reports whether the event has been fired. Settled state is read
// with a single atomic load: no lock.
func (e *Event) Fired() bool { return e.latch.Fired() }

// Fire marks the event fired and wakes all waiters. Firing twice is a
// harmless no-op.
func (e *Event) Fire() { e.latch.Fire(e.v) }

// Wait blocks the calling process until the event fires.
func (e *Event) Wait() { e.latch.wait(e.v, e, nil) }

// blockDesc implements descSource for the deadlock report.
func (e *Event) blockDesc(*waiter) string { return "event " + e.name }

// Latch is an Event without a clock or a name of its own, for hosts that
// embed one per object by the million: the host passes its clock to Fire
// and Wait, and Wait names the host for the deadlock report, which reads
// "event " + who.String(). A latch is one word, a lock-free stack of its
// parked waiters (newest first, linked through waiter.tnext) that Fire
// swaps for latchFired. The zero value is an unfired latch.
type Latch struct {
	top atomic.Pointer[waiter]
}

// latchFired is the stack top of every fired latch.
var latchFired = new(waiter)

// Fired reports whether the latch has been fired: one atomic load.
func (l *Latch) Fired() bool { return l.top.Load() == latchFired }

// Fire marks the latch fired and wakes all waiters, through v. Firing
// twice is a harmless no-op.
func (l *Latch) Fire(v Clock) {
	w := l.top.Swap(latchFired)
	if w == latchFired {
		return
	}
	// Reverse the stack, so the waiters wake in arrival order.
	var fifo *waiter
	for w != nil {
		w.tnext, fifo, w = fifo, w, w.tnext
	}
	for w := fifo; w != nil; {
		next := w.tnext // a woken waiter may be recycled at once
		v.core().wake(w)
		w = next
	}
}

// Wait blocks the calling process on v until the latch fires. who is
// rendered only if the wait shows up in a deadlock report.
func (l *Latch) Wait(v Clock, who fmt.Stringer) { l.wait(v, l, who) }

// wait parks on the latch, described to the deadlock report by src.
func (l *Latch) wait(v Clock, src descSource, who fmt.Stringer) {
	top := l.top.Load()
	if top == latchFired {
		return // settled: one load
	}
	w := getWaiter()
	w.who = who
	for {
		w.tnext = top
		if l.top.CompareAndSwap(top, w) {
			break
		}
		if top = l.top.Load(); top == latchFired {
			putWaiter(w)
			return
		}
	}
	v.core().park(w, src)
	putWaiter(w)
}

// blockDesc implements descSource for the deadlock report.
func (l *Latch) blockDesc(w *waiter) string { return "event " + w.who.String() }

// WaitGroup is the virtual-time analogue of sync.WaitGroup. A Wait on a
// zero counter is a lockless atomic check.
type WaitGroup struct {
	v     Clock
	name  string
	count atomic.Int64
	mu    sync.Mutex
	done  *Event
}

// NewWaitGroup returns a WaitGroup with a zero counter.
func NewWaitGroup(v Clock, name string) *WaitGroup {
	return &WaitGroup{v: v, name: name}
}

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero, waiters are released; if it goes negative, Add panics.
func (wg *WaitGroup) Add(delta int) {
	n := wg.count.Add(int64(delta))
	if n < 0 {
		panic("vclock: negative WaitGroup counter")
	}
	if n == 0 {
		wg.mu.Lock()
		release := wg.done
		wg.done = nil
		wg.mu.Unlock()
		if release != nil {
			release.Fire()
		}
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter is zero.
func (wg *WaitGroup) Wait() {
	if wg.count.Load() == 0 {
		return // settled: no lock
	}
	wg.mu.Lock()
	if wg.count.Load() == 0 {
		wg.mu.Unlock()
		return
	}
	if wg.done == nil {
		wg.done = NewEvent(wg.v, "waitgroup "+wg.name)
	}
	ev := wg.done
	wg.mu.Unlock()
	ev.Wait()
}

// Semaphore is a counting semaphore on a virtual clock with FIFO waiters.
type Semaphore struct {
	v       Clock
	name    string
	mu      sync.Mutex
	avail   int
	waiters []semWaiter // FIFO
}

// semWaiter is a parked Acquire: its permit request, and the permits
// available when it blocked, for the deadlock report.
type semWaiter struct {
	w        *waiter
	n, avail int
}

// NewSemaphore returns a semaphore with n initially available permits.
func NewSemaphore(v Clock, name string, n int) *Semaphore {
	if n < 0 {
		panic("vclock: negative semaphore capacity")
	}
	return &Semaphore{v: v, name: name, avail: n}
}

// Acquire takes n permits, blocking the calling process until available.
// Waiters are served strictly FIFO to avoid starvation of large requests.
func (s *Semaphore) Acquire(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		s.mu.Unlock()
		return
	}
	w := getWaiter()
	s.waiters = append(s.waiters, semWaiter{w: w, n: n, avail: s.avail})
	s.mu.Unlock()
	s.v.core().park(w, s)
	putWaiter(w)
}

// blockDesc implements descSource for the deadlock report.
func (s *Semaphore) blockDesc(w *waiter) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.waiters {
		if sw.w == w {
			return fmt.Sprintf("semaphore %s (acquire %d, avail %d)", s.name, sw.n, sw.avail)
		}
	}
	return "semaphore " + s.name
}

// Release returns n permits and serves FIFO waiters whose requests now fit.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.avail += n
	var served []*waiter
	for len(s.waiters) > 0 && s.waiters[0].n <= s.avail {
		sw := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= sw.n
		served = append(served, sw.w)
	}
	s.mu.Unlock()
	for _, w := range served {
		s.v.core().wake(w)
	}
}
