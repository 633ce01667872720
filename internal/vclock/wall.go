package vclock

import "time"

// Wall is the wall-clock implementation of Clock: the real-mode twin of
// Virtual. Now is monotonic elapsed time since construction, Sleep is a
// real time.Sleep, and the blocking primitives park on their waiter
// channels until woken — plain Go concurrency, with the operating system
// as the scheduler.
//
// What Wall deliberately does NOT have:
//
//   - Runnable accounting. Register/deregister (Go, Run, Attach, Detach)
//     are no-ops: real time advances whether or not anyone is blocked, so
//     there is no count to keep and nothing for an idle pool's phantom
//     registration to freeze.
//   - Deadlock detection. A simulation with no runnable process and no
//     timer is provably stuck and the virtual engines panic with a dump;
//     on the wall clock an external event (a process exiting, a signal)
//     can always arrive, so a lost wake simply blocks — exactly as it
//     would in any concurrent program.
//   - Modelled overhead. Charge is a no-op: the delays the simulation
//     inserts for the toolkit's own control-plane work are not slept, so
//     a real run's TTC terms are what that work really cost.
//   - Determinism. Two wall runs interleave however the OS schedules
//     them. The structural shape of a campaign (which units ran, what
//     retried, the per-unit event order) is reproducible; instants and
//     cross-unit orderings are not. Golden-trace tooling stays sim-only.
//
// The zero value is not usable; construct with NewWall.
type Wall struct {
	eng engine
}

// NewWall returns a wall clock whose origin is now.
func NewWall() *Wall { return &Wall{eng: newWallEngine()} }

// EngineKind reports EngineWall.
func (w *Wall) EngineKind() Engine { return w.eng.kind() }

// Now returns the monotonic wall time elapsed since NewWall.
func (w *Wall) Now() time.Duration { return w.eng.now() }

// Sleep blocks the calling goroutine for d of real time.
func (w *Wall) Sleep(d time.Duration) { w.eng.sleep(d) }

// Charge is a no-op: modelled toolkit overhead is not acted out on the
// wall clock, which already charges what the toolkit really costs.
func (w *Wall) Charge(time.Duration) {}

// Go spawns fn as an ordinary goroutine (registration is a no-op on the
// wall clock, kept so Clock callers behave identically on either engine).
func (w *Wall) Go(fn func()) {
	w.eng.register()
	go func() {
		defer w.eng.deregister()
		fn()
	}()
}

// Run executes fn inline.
func (w *Wall) Run(fn func()) {
	w.eng.register()
	defer w.eng.deregister()
	fn()
}

// After runs fn in its own goroutine once d of real time has passed. It
// holds no goroutine while it waits, and Stop releases it immediately.
func (w *Wall) After(d time.Duration, fn func()) *Timer {
	t := &Timer{}
	t.wall = time.AfterFunc(d, func() { t.fire(fn) })
	return t
}

// Detach is a no-op: the wall clock keeps no runnable accounting.
func (w *Wall) Detach() { w.eng.deregister() }

// Attach is a no-op: the wall clock keeps no runnable accounting.
func (w *Wall) Attach() { w.eng.register() }

func (w *Wall) core() engine { return w.eng }

// wallEngine implements the internal engine contract against real time.
// park/wake use the waiter's reusable capacity-1 channel exactly like the
// reference engine: a wake that races ahead of its park leaves the token
// in the channel and the parker returns immediately. No runnable
// accounting, no timer queue — the OS runs the show.
type wallEngine struct {
	start time.Time
}

func newWallEngine() *wallEngine { return &wallEngine{start: time.Now()} }

func (e *wallEngine) kind() Engine { return EngineWall }

func (e *wallEngine) now() time.Duration { return time.Since(e.start) }

func (e *wallEngine) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (e *wallEngine) register()   {}
func (e *wallEngine) deregister() {}

func (e *wallEngine) park(w *waiter, _ descSource) {
	<-w.ch
}

func (e *wallEngine) wake(w *waiter) {
	w.ch <- struct{}{} // never blocks: cap 1, exactly one parker
}
