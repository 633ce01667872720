package vclock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// engine is the internal contract between the Virtual façade (and the
// blocking primitives) and a discrete-event core. A primitive blocks by
// publishing a waiter in its own data structure (under its own lock) and
// then calling park; whoever later pops that waiter calls wake. All
// runnable accounting, time advancement, and deadlock detection live
// behind this interface.
type engine interface {
	// now returns the current virtual time.
	now() time.Duration
	// sleep suspends the calling process for d of virtual time.
	sleep(d time.Duration)
	// register counts a new runnable process (Go/Run entry).
	register()
	// deregister removes an exiting process and may advance the clock.
	deregister()
	// park blocks the calling process until a matching wake. The caller
	// must already have published w where exactly one waker will find it.
	// src lazily describes what is being waited on for the deadlock
	// report; nil skips blocked tracking (used by sleep internally). It
	// is an interface, not a closure, so the hot path allocates nothing.
	park(w *waiter, src descSource)
	// wake makes the process parked on w runnable again and releases it.
	// Each published waiter must be woken exactly once.
	wake(w *waiter)
	// after arms t to fire (run t.fn unless stopped) d from now.
	after(t *Timer, d time.Duration)
}

// Virtual is a discrete-event virtual clock.
//
// Processes are goroutines registered with Go or Run. The clock tracks how
// many registered processes are runnable; when the count drops to zero it
// advances time to the earliest pending timer and wakes its sleepers. If no
// timer is pending and blocked waiters remain, the simulation is deadlocked
// and the engine panics with a dump of what everyone is waiting on. The
// panic is raised on the process whose block left nothing runnable — the
// one that blocked last: recoverable when that is the Run caller, fatal
// (by design — it is a programming-error diagnostic) when it is a
// spawned process.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	eng engine
}

// NewVirtual returns a virtual clock at time zero with no processes,
// backed by the timer-wheel engine (virtual.go).
func NewVirtual() *Virtual { return &Virtual{eng: newVirtualEngine()} }

func (v *Virtual) core() engine { return v.eng }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration { return v.eng.now() }

// Sleep suspends the calling process for d of virtual time. The caller must
// be a registered process (spawned via Go or running inside Run); otherwise
// the runnable accounting is corrupted.
func (v *Virtual) Sleep(d time.Duration) { v.eng.sleep(d) }

// Charge is Sleep: in simulation, modelled overhead is a delay.
func (v *Virtual) Charge(d time.Duration) { v.eng.sleep(d) }

// Go spawns fn as a new registered process. It may be called from inside or
// outside the simulation; the process is counted as runnable from the
// moment Go returns, so the clock cannot advance past work that fn is about
// to do.
func (v *Virtual) Go(fn func()) {
	v.eng.register()
	go func() {
		defer v.eng.deregister()
		fn()
	}()
}

// Run executes fn inline as a registered process and returns when fn
// returns. It is the usual entry point: tests and binaries call
// v.Run(func(){ ... }) and spawn further processes with v.Go from inside.
func (v *Virtual) Run(fn func()) {
	v.eng.register()
	defer v.eng.deregister()
	fn()
}

// After schedules fn to run at virtual instant Now()+d. The timer is a
// node in the engine's timer wheel, not a process. fn runs inline in
// whichever process advances the clock to that instant: after the
// instant's sleepers are released, in arm order among the instant's
// callbacks, and holding one runnable token, so the clock cannot move
// while it runs. fn therefore fires at exactly the requested instant,
// bit-reproducibly, and must not block on the clock (Sleep, Charge, a
// Wait or an Acquire that parks): code that needs to block spawns a
// process with Go and continues there. For the same reason, a process
// must not hold a lock that a callback takes while it blocks on the
// clock: the callback may run on that very process. fn may arm further
// timers; one armed with d = 0 fires at the same instant, before the
// clock moves. Call After from a registered process or from another
// callback: the clock fires timers only when it advances. Stopping the
// returned timer skips fn only: the timer stays filed and fires as a
// no-op at its instant (see Timer).
func (v *Virtual) After(d time.Duration, fn func()) *Timer {
	t := &Timer{fn: fn}
	v.eng.after(t, d)
	return t
}

// Charged is d: in simulation, modelled overhead is a delay.
func (v *Virtual) Charged(d time.Duration) time.Duration { return d }

// Detach removes the calling process from the runnable accounting, as if
// it had exited. It exists for worker pools that keep goroutines alive
// between simulated tasks: a detached goroutine is invisible to the
// clock — it must not touch any vclock primitive — and typically parks
// on a plain channel. The clock may advance (or the simulation finish)
// while it is parked.
func (v *Virtual) Detach() { v.eng.deregister() }

// Attach counts a process back into the runnable accounting, as Go does
// for a new process. Call it on behalf of a detached worker BEFORE
// handing it work (from a registered running process), so the clock
// cannot advance past work the worker is about to do.
func (v *Virtual) Attach() { v.eng.register() }

// descSource lazily renders a blocked waiter's description for the
// deadlock report. Primitives implement it on their own receiver and read
// per-waiter details (permit count, availability snapshot) from the
// waiter's scratch fields, so blocking never allocates a closure; the
// (rare) deadlock report pays for all formatting.
type descSource interface {
	blockDesc(w *waiter) string
}

// waiter is one parked process, published by a primitive and woken by
// exactly one waker through its reusable capacity-1 channel. who is
// scratch owned by the latch that published the waiter. Every Timer
// embeds a waiter, so a field added here is paid by every After.
type waiter struct {
	ch  chan struct{}
	who fmt.Stringer // latch: the host named in the deadlock report

	// Timer-wheel fields (virtual engine only): the waiter doubles as
	// the intrusive wheel node, so the sleep path allocates nothing. A
	// node with timer set is an After callback (the Timer embeds it)
	// rather than a sleeping process. tnext also links a waiter parked
	// on a latch into the latch's stack: a parked waiter sleeps in no
	// wheel.
	deadline int64
	tseq     int64
	tnext    *waiter
	timer    *Timer
}

// waiterPool recycles waiters (and their wake channels) across blocks:
// simulations park millions of times, and the waiter allocation was among
// the largest sources of garbage in the engine.
var waiterPool = sync.Pool{
	New: func() interface{} { return &waiter{ch: make(chan struct{}, 1)} },
}

func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

func putWaiter(w *waiter) {
	w.who = nil
	w.tnext = nil
	waiterPool.Put(w)
}

// formatDeadlock renders the deadlock panic message shared by every
// engine: the time of death and a sorted dump of every blocked waiter.
func formatDeadlock(now time.Duration, descs []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vclock: deadlock at t=%v: no runnable process, no pending timer, %d blocked waiter(s):",
		now, len(descs))
	sort.Strings(descs)
	for _, d := range descs {
		b.WriteString("\n  - ")
		b.WriteString(d)
	}
	return b.String()
}

const underflowPanic = "vclock: runnable count underflow (blocking call from unregistered goroutine?)"
