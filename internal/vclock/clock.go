// Package vclock provides the process clock the toolkit runs under: a
// virtual-time engine for discrete-event simulation with real Go
// concurrency, and a monotonic wall-clock twin for real-mode execution.
//
// The virtual engine lets ordinary goroutines cooperate on a simulated
// clock: a goroutine that calls Sleep suspends in virtual time, and the
// clock only advances when every registered process is blocked. Durations
// therefore model time (an MD task "runs" for 200 virtual seconds) while
// the wall clock cost is microseconds. All blocking must go through the
// primitives in this package (Sleep, Event, WaitGroup, Semaphore) so the
// engine can account for runnable processes; blocking on a bare channel
// from a registered process stalls the simulation.
//
// The wall clock (NewWall) implements the same Clock contract against
// real time: Sleep really sleeps, the primitives really block, and
// registration is a no-op because the operating system, not the engine,
// decides when time passes. Code written against Clock runs unchanged on
// either — that seam is what lets one campaign execute simulated or for
// real (see internal/realtime).
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is the process-clock contract the runtime is written against: a
// time source plus the process-accounting hooks (Go/Run/Attach/Detach)
// the discrete-event engine needs to know when it may advance time. The
// virtual clock (NewVirtual) and the wall clock (NewWall) both satisfy
// it; on the wall clock the accounting hooks are no-ops because real time
// advances on its own.
//
// The interface carries an unexported method on purpose: a Clock must be
// constructed by this package, because the blocking primitives park and
// wake through the clock's internal engine.
type Clock interface {
	// Now returns the elapsed time since the clock's origin.
	Now() time.Duration
	// Sleep suspends the calling process for d of this clock's time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)
	// Charge accounts d of modelled toolkit overhead — control-plane
	// work the simulation stands in for with a delay (client submission,
	// network round trips, agent boot, launch latency). On a virtual
	// clock it is Sleep(d). On the wall clock it is a no-op: real mode
	// does that work itself, the wall clock already charges what it
	// really costs, and sleeping the model on top would count it twice.
	// Delays that stand in for work real mode does NOT do (a modelled
	// kernel, a data transfer) and real limits (walltime, deadlines,
	// fault instants) go through Sleep and After.
	Charge(d time.Duration)
	// Go spawns fn as a new registered process.
	Go(fn func())
	// Run executes fn inline as a registered process.
	Run(fn func())
	// After schedules fn to run at instant Now()+d as its own process —
	// the timer primitive behind fault arming, deadlines and walltime
	// guards. The returned Timer cancels it.
	After(d time.Duration, fn func()) *Timer
	// Attach counts a process back into the runnable accounting.
	Attach()
	// Detach removes the calling process from the runnable accounting.
	Detach()
	// EngineKind reports which engine backs this clock.
	EngineKind() Engine

	// core exposes the internal engine to this package's primitives.
	core() engine
}

var _ Clock = (*Virtual)(nil)
var _ Clock = (*Wall)(nil)

// Timer is a pending After call. Stop cancels it: it reports true when it
// prevented fn from running, false when fn already ran (or is running) or
// the timer was stopped before.
//
// On a virtual clock a stopped timer's process still sleeps to its
// instant and only skips fn, so stopping never moves a simulated
// timeline — not even where the clock ends up once the run drains. On
// the wall clock Stop releases the runtime timer at once, which is what
// lets a guard armed for an hour not outlive the thing it guards.
type Timer struct {
	state atomic.Int32
	wall  *time.Timer // wall clock only
}

const (
	timerArmed int32 = iota
	timerFired
	timerStopped
)

// fire runs fn unless the timer was stopped first.
func (t *Timer) fire(fn func()) {
	if t.state.CompareAndSwap(timerArmed, timerFired) {
		fn()
	}
}

// Stop cancels the timer; see Timer.
func (t *Timer) Stop() bool {
	if !t.state.CompareAndSwap(timerArmed, timerStopped) {
		return false
	}
	if t.wall != nil {
		t.wall.Stop()
	}
	return true
}
