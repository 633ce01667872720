package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The blocking primitives. Each primitive owns its waiter bookkeeping
// behind its own mutex and talks to the engine only through park/wake, so
// under the direct-handoff engine two unrelated primitives never contend
// on a shared lock, and settled-state reads (Event.Fired, a fired Wait, a
// zero WaitGroup Wait) are single atomic loads with no lock at all. The
// protocol every primitive follows:
//
//	block:  publish a waiter in the primitive's list (under its lock),
//	        release the lock, then park.
//	wake:   pop the waiter (under the lock), release the lock, then
//	        wake. Each waiter is woken exactly once.

// Event is a one-shot broadcast flag on a virtual clock, analogous to
// closing a channel. Wait blocks the calling process until Fire is called;
// once fired, Wait returns immediately forever after — a lockless atomic
// check. Hosts may also embed an Event value and Init it in place.
type Event struct {
	v       Clock
	name    string
	fired   atomic.Bool
	mu      sync.Mutex
	waiters []*waiter
}

// NewEvent returns an unfired Event. The name appears in deadlock reports.
func NewEvent(v Clock, name string) *Event {
	e := &Event{}
	e.Init(v, name)
	return e
}

// Init prepares a zero Event in place (for hosts embedding the value).
// It must be called before any other method, and only once.
func (e *Event) Init(v Clock, name string) {
	e.v = v
	e.name = name
}

// Fired reports whether the event has been fired. Settled state is read
// with a single atomic load: no lock.
func (e *Event) Fired() bool {
	return e.fired.Load()
}

// Fire marks the event fired and wakes all waiters. Firing twice is a
// harmless no-op.
func (e *Event) Fire() {
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		return
	}
	e.fired.Store(true)
	ws := e.waiters
	e.waiters = nil
	e.mu.Unlock()
	for _, w := range ws {
		e.v.core().wake(w)
	}
}

// Wait blocks the calling process until the event fires.
func (e *Event) Wait() {
	if e.fired.Load() {
		return // settled: no lock
	}
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		return
	}
	w := getWaiter()
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	e.v.core().park(w, e)
	putWaiter(w)
}

// blockDesc implements descSource for the deadlock report.
func (e *Event) blockDesc(*waiter) string { return "event " + e.name }

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
	waiters []*waiter // FIFO; each waiter's n is its permit request
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
	w.n = n
	w.aux = s.avail // availability snapshot for the deadlock report
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	s.v.core().park(w, s)
	putWaiter(w)
}

// blockDesc implements descSource for the deadlock report.
func (s *Semaphore) blockDesc(w *waiter) string {
	return fmt.Sprintf("semaphore %s (acquire %d, avail %d)", s.name, w.n, w.aux)
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
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.n
		served = append(served, w)
	}
	s.mu.Unlock()
	for _, w := range served {
		s.v.core().wake(w)
	}
}
