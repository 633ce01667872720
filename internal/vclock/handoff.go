package vclock

import (
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/pad"
)

// handoffEngine is the production discrete-event core (EngineHandoff).
// Where the reference engine serialises every operation on one global
// mutex, this engine splits the state by contention domain:
//
//   - the runnable count is a lone atomic: blocking is one atomic
//     decrement, waking one atomic increment, and only the process that
//     decrements it to zero pays for time advancement;
//   - timers live in a hierarchical wheel (wheel.go) behind a dedicated
//     timer lock touched only by Sleep and the advance loop, and all
//     timers sharing the earliest deadline fire as one batch;
//   - primitive state (event/semaphore waiter lists) moved behind
//     per-primitive locks (primitives.go), so two unrelated semaphores
//     never contend;
//   - blocked-waiter diagnostics live in a cache-line-padded striped
//     table, touched twice per park and never on the wake fast path.
//
// Direct handoff: when a wake races the window between a process
// publishing its waiter and actually parking (common under semaphore
// release storms), the waker flips the waiter's state word
// and walks away, and the parker sees the flip and never blocks — the
// runnable token crosses the pair with zero counter traffic, zero
// channel operations, and zero blocked-table churn.
type handoffEngine struct {
	// nowAtomic is read on every profiler event from every executing
	// unit; it gets a cache line to itself so the write-hot runnable
	// counter below cannot invalidate it.
	nowAtomic atomic.Int64
	_         pad.Line
	runnable  atomic.Int64
	dead      atomic.Bool
	_         pad.Line

	// timerMu guards the wheel, seq, and fireBuf. Time itself is read
	// through nowAtomic and written only by the advance loop.
	timerMu sync.Mutex
	wh      wheel
	seq     int64
	fireBuf []*waiter

	blocked blockedTable
}

func newHandoffEngine() *handoffEngine { return &handoffEngine{} }

func (e *handoffEngine) kind() Engine { return EngineHandoff }

func (e *handoffEngine) now() time.Duration {
	return time.Duration(e.nowAtomic.Load())
}

func (e *handoffEngine) register() {
	e.runnable.Add(1)
}

func (e *handoffEngine) deregister() {
	e.blockOne()
}

// blockOne retires the caller's runnable token; the process that takes
// the count to zero runs the advance loop.
func (e *handoffEngine) blockOne() {
	if e.dead.Load() {
		return
	}
	n := e.runnable.Add(-1)
	if n < 0 {
		panic(underflowPanic)
	}
	if n == 0 {
		e.advance()
	}
}

func (e *handoffEngine) park(w *waiter, src descSource) {
	if w.state.Swap(wParked) == wSignaled {
		// Direct handoff: the waker already passed through the window
		// between this process publishing the waiter and parking here.
		// Keep the runnable token and return — no counter, no channel,
		// no blocked-table entry.
		w.state.Store(wIdle)
		return
	}
	if src != nil {
		e.blocked.add(w, src)
	}
	e.blockOne()
	<-w.ch
	w.state.Store(wIdle)
	if src != nil {
		e.blocked.remove(w)
	}
}

func (e *handoffEngine) wake(w *waiter) {
	if w.state.Swap(wSignaled) != wParked {
		// The parker has not parked yet: it will observe the signal at
		// its swap and keep its own runnable token (direct handoff).
		return
	}
	e.runnable.Add(1)
	w.ch <- struct{}{} // never blocks: cap 1, exactly one parker
}

func (e *handoffEngine) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := getWaiter()
	e.timerMu.Lock()
	w.deadline = e.nowAtomic.Load() + int64(d)
	e.seq++
	w.tseq = e.seq
	e.wh.push(w)
	e.timerMu.Unlock()
	e.park(w, nil) // the wheel, not the blocked table, tracks sleepers
	putWaiter(w)
}

// advance jumps virtual time to the earliest pending deadline and wakes
// its sleepers, batch by batch, while no process is runnable. It runs on
// whichever process took the runnable count to zero; timerMu serialises
// competing advancers, each of which re-checks the count under the lock.
//
// The count can only be zero when every registered process has fully
// parked (a process is counted until its own blockOne, and every wake
// credits the counter before signalling), so the loop body observes the
// wheel and the blocked table at rest.
func (e *handoffEngine) advance() {
	e.timerMu.Lock()
	for !e.dead.Load() && e.runnable.Load() == 0 {
		batch, deadline, ok := e.wh.popBatch(e.fireBuf)
		if !ok {
			if e.blocked.count() > 0 {
				// Fatal: no process can ever run again. Mark the engine
				// dead and release the lock before panicking so deferred
				// exits on the unwinding goroutine do not self-deadlock.
				msg := formatDeadlock(e.now(), e.blocked.descs())
				e.dead.Store(true)
				e.timerMu.Unlock()
				panic(msg)
			}
			break // simulation quiescent: all processes finished
		}
		if deadline < e.nowAtomic.Load() {
			panic("vclock: timer deadline in the past")
		}
		e.nowAtomic.Store(deadline)
		// Every sleeper in the batch is fully parked (see above), so the
		// batch is credited with one atomic add and signalled directly.
		e.runnable.Add(int64(len(batch)))
		for _, w := range batch {
			w.ch <- struct{}{} // never blocks: cap 1, one sleeper
		}
		e.fireBuf = batch[:0]
	}
	e.timerMu.Unlock()
}

// ---------------------------------------------------------------------------
// Striped blocked-waiter table

// blockedStripes is the stripe count of the blocked table. Power of two.
const blockedStripes = 16

// blockedStripe is one shard: a mutex, its slice of the table, and
// padding so adjacent stripes do not share a cache line.
type blockedStripe struct {
	mu sync.Mutex
	m  map[*waiter]descSource
	_  pad.Line
}

// blockedTable tracks which waiters are parked and why, for the deadlock
// report. Striping by the waiter's pool-assigned stripe id keeps parks on
// unrelated primitives from serialising; the aggregate count is an atomic
// so deadlock detection never sweeps the stripes in the common case.
type blockedTable struct {
	n atomic.Int64
	// n is bumped by every park/unpark on every stripe; keep it off
	// stripe 0's cache line (stripes pad only at their tails).
	_       pad.Line
	stripes [blockedStripes]blockedStripe
}

func (t *blockedTable) add(w *waiter, src descSource) {
	s := &t.stripes[w.sid&(blockedStripes-1)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*waiter]descSource)
	}
	s.m[w] = src
	s.mu.Unlock()
	t.n.Add(1)
}

func (t *blockedTable) remove(w *waiter) {
	s := &t.stripes[w.sid&(blockedStripes-1)]
	s.mu.Lock()
	delete(s.m, w)
	s.mu.Unlock()
	t.n.Add(-1)
}

func (t *blockedTable) count() int64 { return t.n.Load() }

// descs formats every blocked waiter's description (deadlock path only).
func (t *blockedTable) descs() []string {
	var out []string
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for w, src := range s.m {
			out = append(out, src.blockDesc(w))
		}
		s.mu.Unlock()
	}
	return out
}
