package vclock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine selects the discrete-event core behind a Virtual clock. Both
// engines drive simulated time identically — same advance rule, same
// deadline/seq tiebreak, same deadlock diagnostics — and the engine-parity
// suite holds them to bit-identical reports; they differ only in how much
// wall-clock the bookkeeping costs.
type Engine int

const (
	// EngineHandoff is the production engine: a direct-handoff design with
	// an atomic runnable counter, a hierarchical timer wheel that fires
	// all same-deadline timers as one batch, per-primitive locks, and a
	// cache-line-padded striped blocked table. When a wake lands in the
	// window between a process publishing itself as a waiter and actually
	// parking, the runnable token is handed straight across — neither side
	// touches the global counter or a channel.
	EngineHandoff Engine = iota
	// EngineRef is the reference engine: the seed's single global mutex,
	// integer runnable count, and binary timer heap. It is kept as the
	// semantic baseline the parity tests compare against, mirroring how
	// pilot.Config.Rescan keeps the seed's agent scheduler.
	EngineRef
	// EngineWall backs a Wall clock: real time, real sleeps, no runnable
	// accounting. It is selected by constructing NewWall, never by
	// ParseEngine — the -engine flag picks between simulation cores, the
	// sim/real decision is a mode, not an engine.
	EngineWall
)

func (e Engine) String() string {
	switch e {
	case EngineRef:
		return "ref"
	case EngineWall:
		return "wall"
	}
	return "handoff"
}

// ParseEngine maps an engine name ("handoff", "ref") to its Engine value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "handoff":
		return EngineHandoff, nil
	case "ref":
		return EngineRef, nil
	}
	return 0, fmt.Errorf("vclock: unknown engine %q (have handoff, ref)", s)
}

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
	// kind reports which engine this is.
	kind() Engine
}

// Virtual is a discrete-event virtual clock.
//
// Processes are goroutines registered with Go or Run. The clock tracks how
// many registered processes are runnable; when the count drops to zero it
// advances time to the earliest pending timer and wakes its sleepers. If no
// timer is pending and blocked waiters remain, the simulation is deadlocked
// and the engine panics with a dump of what everyone is waiting on. The
// panic is raised on whichever goroutine blocked last: recoverable when
// that is the Run caller, fatal (by design — it is a programming-error
// diagnostic) when it is a spawned process.
//
// The zero value is not usable; construct with NewVirtual (direct-handoff
// engine) or NewVirtualEngine.
type Virtual struct {
	eng engine
}

// NewVirtual returns a virtual clock at time zero with no processes,
// backed by the default direct-handoff engine.
func NewVirtual() *Virtual { return NewVirtualEngine(EngineHandoff) }

// NewVirtualEngine returns a virtual clock backed by the selected engine.
func NewVirtualEngine(e Engine) *Virtual {
	if e == EngineRef {
		return &Virtual{eng: newRefEngine()}
	}
	return &Virtual{eng: newHandoffEngine()}
}

// EngineKind reports which engine backs this clock.
func (v *Virtual) EngineKind() Engine { return v.eng.kind() }

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

// After schedules fn to run at virtual instant Now()+d as its own
// registered process. It is the arming primitive behind deterministic
// fault injection: the trigger process is counted runnable from the
// moment After returns, so the clock can neither advance past the
// pending trigger nor fire it early — fn runs at exactly the requested
// instant, bit-reproducibly. fn must follow the same rules as a Go
// process body. Stopping the returned timer skips fn only: the trigger
// process still sleeps to its instant (see Timer).
func (v *Virtual) After(d time.Duration, fn func()) *Timer {
	t := &Timer{}
	v.Go(func() {
		v.Sleep(d)
		t.fire(fn)
	})
	return t
}

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
// exactly one waker. The channel is a reusable capacity-1 signal; the
// state word implements the handoff engine's wake-before-park fast path
// (the reference engine parks and wakes through the channel only). n and
// aux are scratch owned by the semaphore that published the waiter.
type waiter struct {
	ch    chan struct{}
	state atomic.Int32
	sid   uint32 // pool-assigned id selecting a blocked-table stripe
	n     int    // semaphore: permits requested
	aux   int    // semaphore: availability snapshot for the report

	// Timer-wheel fields (handoff engine sleeps only): the waiter doubles
	// as the intrusive wheel node, so the sleep path allocates nothing.
	deadline int64
	tseq     int64
	tnext    *waiter
}

// Waiter states for the handoff fast path. A parker swaps in wParked; if
// it reads back wSignaled the waker already passed through and the parker
// returns without ever blocking. A waker swaps in wSignaled; if it reads
// back wParked the parker is (or is about to be) asleep and needs a
// counted wake through the channel.
const (
	wIdle int32 = iota
	wSignaled
	wParked
)

// waiterPool recycles waiters (and their wake channels) across blocks:
// simulations park millions of times, and the waiter allocation was among
// the largest sources of garbage in the engine.
var waiterSid atomic.Uint32

var waiterPool = sync.Pool{
	New: func() interface{} {
		return &waiter{ch: make(chan struct{}, 1), sid: waiterSid.Add(1)}
	},
}

func getWaiter() *waiter { return waiterPool.Get().(*waiter) }

func putWaiter(w *waiter) {
	w.n = 0
	w.aux = 0
	w.tnext = nil
	waiterPool.Put(w)
}

// formatDeadlock renders the deadlock panic message shared by both
// engines: the time of death and a sorted dump of every blocked waiter.
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
