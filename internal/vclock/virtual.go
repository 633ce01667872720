package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// virtualEngine is the production discrete-event core. Its runnable
// count, timer wheel, seq counter and blocked-waiter map sit behind one
// mutex: a simulation runs its units, pilots and pipelines as timer
// records, not processes, so a traced run peaks at a handful of
// goroutines and the lock is rarely contended. What sets it apart from
// the reference engine is the timer store and what a timer is:
//
//   - timers live in a hierarchical wheel (wheel.go), and all timers
//     sharing the earliest deadline fire as one batch: the batch's
//     sleepers are released and its After callbacks run inline in the
//     advancing process, so a pending callback holds no goroutine;
//   - time is also published through an atomic, so Now — read on every
//     profiler event — takes no lock.
//
// park and wake follow the reference engine's channel protocol: a wake
// that lands before its park leaves the token in the waiter's cap-1
// channel, and the parker deletes its own blocked entry once it wakes.
type virtualEngine struct {
	nowAtomic atomic.Int64

	// mu guards everything below. Time is written only by the advance
	// loop, under mu.
	mu       sync.Mutex
	runnable int
	wh       wheel
	seq      int64
	fireBuf  []*waiter
	// firing is set while the advance loop runs a batch's callbacks
	// with mu released (see advance).
	firing bool
	// blocked maps each waiter parked on a primitive to what it waits
	// on, for the deadlock report.
	blocked map[*waiter]descSource
	// dead marks a detected deadlock: later accounting is a no-op, so
	// the panic can unwind through deferred exits.
	dead bool
}

func newVirtualEngine() *virtualEngine {
	return &virtualEngine{blocked: make(map[*waiter]descSource)}
}

func (e *virtualEngine) now() time.Duration {
	return time.Duration(e.nowAtomic.Load())
}

func (e *virtualEngine) register() {
	e.mu.Lock()
	e.runnable++
	e.mu.Unlock()
}

func (e *virtualEngine) deregister() {
	e.mu.Lock()
	e.blockLocked()
	e.mu.Unlock()
}

// blockLocked retires the caller's runnable token; the process that
// takes the count to zero runs the advance loop. Caller holds mu.
func (e *virtualEngine) blockLocked() {
	if e.dead {
		return
	}
	e.runnable--
	if e.runnable < 0 {
		panic(underflowPanic)
	}
	if e.runnable == 0 {
		e.advance()
	}
}

func (e *virtualEngine) park(w *waiter, src descSource) {
	e.mu.Lock()
	if src != nil {
		e.blocked[w] = src
	}
	e.blockLocked()
	e.mu.Unlock()
	<-w.ch
	if src != nil {
		e.mu.Lock()
		delete(e.blocked, w)
		e.mu.Unlock()
	}
}

func (e *virtualEngine) wake(w *waiter) {
	e.mu.Lock()
	e.runnable++
	e.mu.Unlock()
	w.ch <- struct{}{} // never blocks: cap 1, exactly one parker
}

func (e *virtualEngine) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := getWaiter()
	e.mu.Lock()
	e.fileLocked(w, d)
	e.blockLocked() // the wheel, not the blocked map, tracks sleepers
	e.mu.Unlock()
	<-w.ch
	putWaiter(w)
}

// after files t's embedded node as a callback; no process waits for it.
func (e *virtualEngine) after(t *Timer, d time.Duration) {
	t.node.timer = t
	e.mu.Lock()
	e.fileLocked(&t.node, max(d, 0))
	e.mu.Unlock()
}

// fileLocked pushes w into the wheel at d from now, stamped with the
// next seq. Caller holds mu.
func (e *virtualEngine) fileLocked(w *waiter, d time.Duration) {
	w.deadline = e.nowAtomic.Load() + int64(d)
	e.seq++
	w.tseq = e.seq
	e.wh.push(w)
}

// advance jumps virtual time to the earliest pending deadline and fires
// its batch, batch by batch, while no process is runnable. Caller holds
// mu and took the runnable count to zero, so a deadlock is reported by
// the process that blocked last.
//
// A batch fires in (deadline, seq) order: its sleepers are credited and
// signalled, and then its After callbacks run inline, in order, on this
// process. They run with mu released, so they can arm timers and wake
// processes, and holding one runnable token, so no other process can
// advance the clock under them. The count can therefore reach zero while
// callbacks run only if a callback itself blocked on the clock, which
// the contract forbids; that advancer reports it instead of firing
// timers out of order. Once the callbacks return, the loop drops their
// token and goes on only if that empties the count: otherwise a released
// process runs, and the one that blocks last advances next.
func (e *virtualEngine) advance() {
	for !e.dead && e.runnable == 0 {
		if e.firing {
			e.dead = true
			e.mu.Unlock()
			panic(fmt.Sprintf("vclock: an After callback blocked on the clock at t=%v", e.now()))
		}
		batch, deadline, ok := e.wh.popBatch(e.fireBuf)
		if !ok {
			if len(e.blocked) > 0 {
				// Fatal: no process can ever run again. Mark the engine
				// dead and release mu before panicking so deferred exits
				// on the unwinding goroutine do not self-deadlock.
				descs := make([]string, 0, len(e.blocked))
				for w, src := range e.blocked {
					descs = append(descs, src.blockDesc(w))
				}
				msg := formatDeadlock(e.now(), descs)
				e.dead = true
				e.mu.Unlock()
				panic(msg)
			}
			return // simulation quiescent: all processes finished
		}
		if deadline < e.nowAtomic.Load() {
			panic("vclock: timer deadline in the past")
		}
		e.nowAtomic.Store(deadline)
		// Sleepers are credited and signalled; the callbacks are
		// compacted to the front of the batch and share one token.
		fns := batch[:0]
		for _, w := range batch {
			if w.timer != nil {
				fns = append(fns, w)
				continue
			}
			e.runnable++
			w.ch <- struct{}{} // never blocks: cap 1, one sleeper
		}
		if len(fns) > 0 {
			// No other advancer can reach popBatch (and fireBuf) until
			// the token is dropped.
			e.runnable++
			e.firing = true
			e.mu.Unlock()
			for _, w := range fns {
				w.timer.fire()
			}
			e.mu.Lock()
			e.firing = false
			e.runnable--
		}
		// Drop the fired nodes: an After node is its Timer, and its fn
		// closure must not outlive the batch in fireBuf's backing array.
		clear(batch)
		e.fireBuf = batch[:0]
	}
}
