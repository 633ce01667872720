package pilot

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/vclock"
)

// agent is the pilot's on-resource component: it owns the allocation's
// cores and schedules compute units onto them at the application level.
// Units wait in a pending queue (pendq.go: segmented per-class
// buckets); submissions and completions trigger a continuous-scheduling
// pass that places whichever pending units fit. Each agent owns its
// queue outright, so a multi-pilot ResourceSet's pending work is
// sharded per pilot: the WaveBatcher's per-pilot bulk runs land in
// disjoint queues and the pilots schedule independently.
//
// The pass is incremental (see sched.go for the placement index and
// pendq.go for the queue):
//
//   - a pending-need watermark (minNeedAny/minNeedMPI) lets completion
//     events skip the pass entirely when no pending unit can fit the
//     newly freed capacity — the common case for a saturated pilot;
//   - passes are batched: while one pass runs, further submit/completion
//     events only mark the queue dirty, and the running pass loops until
//     clean, so one pass services many same-instant completions;
//   - within a pass, an O(1) feasibility precheck (against the free-core
//     index) rejects units without touching the node state — and, on the
//     segmented queue, blocks the unit's whole placement class for the
//     rest of the pass — and the pass stops early once no free core
//     remains, resuming at the bucket cursors instead of rescanning the
//     placed prefix.
//
// Queue discipline per placement policy: FirstFit and BestFit schedule
// continuously — units are tried in FIFO order and any unit that fits
// starts, so later units may overtake a blocked head (RADICAL-Pilot
// agent semantics). Backfill is stricter, mirroring EASY backfilling at
// the batch layer: the first blocked unit holds a reservation at its
// earliest possible start (the shadow time, projected from the running
// units' cost-model completion times), and a later unit may overtake it
// only if it cannot delay that start — it either uses cores the head
// will not need at the shadow time, or is predicted to finish before it.
// The head is therefore never starved by a stream of small units, which
// continuous scheduling permits.
type agent struct {
	pilot *ComputePilot
	sess  *Session

	mu      sync.Mutex
	sched   scheduler
	pend    pendingQueue
	started bool
	stopped bool
	stopErr error
	running int
	// stoppedFlag mirrors stopped for the executor's lock-free checks on
	// the per-unit hot path; written under mu, read via atomic.
	stoppedFlag atomic.Bool

	// inPass and dirty coalesce scheduling passes; scratch is a
	// pass-local buffer reused across passes (only the pass owner
	// touches it).
	inPass  bool
	dirty   bool
	scratch []launchReq

	// launchFree is the launcher: one slot per allocated node, each
	// holding the instant it next falls free. Every launch pays the
	// machine's per-task launch latency, the runtime-side, per-task
	// overhead component. The pass hands slots out round-robin from
	// launchNext under mu. The latency is one constant per machine and
	// Now never decreases, so the ring slot is always the earliest-free
	// one and no scan for the minimum is needed; launch order is
	// placement order. The slot count is fixed at allocation: node loss
	// does not shrink it.
	launchFree []time.Duration
	launchNext int

	// idle is a LIFO free list of executor workers whose chains ran dry:
	// parked on plain channels and detached from the virtual clock, so
	// they are invisible to the engine while idle, and a new scheduling
	// wave re-attaches them instead of spawning fresh goroutines (whose
	// stacks would have to regrow — 8k-goroutine waves made the runtime's
	// stack machinery a top profile entry). Guarded by idleMu; drained by
	// stop.
	idleMu sync.Mutex
	idle   *execSlot

	// passCount/passScanned/passPlaced instrument the scheduling passes
	// (under mu): passes run, units yielded by the queue, units placed.
	// Together with the queue's own work counter they let the pass-cost
	// regression tests pin that per-placed-unit work is independent of
	// backlog depth.
	passCount   uint64
	passScanned uint64
	passPlaced  uint64

	// runEnds (Backfill policy only) tracks each running unit's projected
	// completion — placement time + launch latency + cost-model duration —
	// the data the EASY reservation is computed from.
	runEnds map[*ComputeUnit]runInfo

	// utilUnits/utilBusy accumulate the pilot's utilization counters:
	// units that finished executing here and their core-weighted
	// execution time. Updated under mu at exec stop, before the unit
	// turns final (O(1) per unit); campaign reports diff snapshots
	// across their run window.
	utilUnits int
	utilBusy  time.Duration

	// capCores is the pilot's current capacity in cores: the static
	// allocation minus nodes lost to injected faults. Read lock-free by
	// admission and placement eligibility.
	capCores atomic.Int64

	// Fault-tolerance state (all under mu; recover also read via
	// recovery()): recover, when installed (ResourceSet rebind opt-in),
	// receives the units a pilot death or node loss displaces instead of
	// failing them; inflight tracks running units with the allocation and
	// rebind generation of their placement, so teardown can steal them;
	// down marks nodes lost to FaultNodeLoss — release drops their
	// shares; quiesceEv, once armed by quiesce(), fires when no unit is
	// running (the DrainPilot handshake).
	recover   func([]*ComputeUnit)
	inflight  map[*ComputeUnit]flightInfo
	down      map[int]bool
	quiesceEv *vclock.Event
}

// flightInfo is one tracked in-flight unit: the allocation it holds and
// the rebind generation captured at placement.
type flightInfo struct {
	alloc allocation
	gen   int
}

// runInfo is a running unit's projected completion and core count.
type runInfo struct {
	end   time.Duration
	cores int
}

// launchReq is one placement decided by a pass, executed after unlock.
// gen is the unit's rebind generation at placement time (-1 on agents
// that do not track in-flight work): every effect the executor applies
// is gated on it, so a unit stolen for rebinding mid-flight cannot be
// double-settled by its stale executor.
type launchReq struct {
	u     *ComputeUnit
	alloc allocation
	gen   int
	// launchEnd is the instant the unit's launch completes, computed by
	// the pass from its launcher slot.
	launchEnd time.Duration
}

// execSlot is one idle executor worker: a capacity-1 work channel (the
// dispatcher must never block handing work to a parked worker) and the
// free-list link. Allocated once per worker goroutine.
type execSlot struct {
	ch   chan launchReq
	next *execSlot
}

func newAgent(p *ComputePilot) *agent {
	m := p.backend.machine
	cores := p.Desc.Cores
	nNodes := m.NodesFor(cores)
	nodes := make([]int, nNodes)
	rem := cores
	for i := range nodes {
		take := m.CoresPerNode
		if take > rem {
			take = rem
		}
		nodes[i] = take
		rem -= take
	}
	a := &agent{
		pilot:      p,
		sess:       p.sess,
		sched:      newScheduler(nodes, p.sess.Cfg.Agent),
		pend:       newPendingQueue(),
		launchFree: make([]time.Duration, nNodes),
	}
	if p.sess.Cfg.Agent == Backfill {
		a.runEnds = make(map[*ComputeUnit]runInfo)
	}
	a.capCores.Store(int64(cores))
	return a
}

// capacityCores reports the pilot's current capacity: the static
// allocation minus nodes lost to injected faults.
func (a *agent) capacityCores() int { return int(a.capCores.Load()) }

// setRecovery installs the rebind path: the callback receiving units a
// pilot death or node loss displaces, plus the in-flight tracking that
// makes stealing them possible. ResourceSet installs it right after
// submission — before activation — so no placement escapes tracking.
func (a *agent) setRecovery(fn func([]*ComputeUnit)) {
	a.mu.Lock()
	a.recover = fn
	if a.inflight == nil {
		a.inflight = make(map[*ComputeUnit]flightInfo)
	}
	a.mu.Unlock()
}

// recovery returns the installed rebind callback, nil without one.
func (a *agent) recovery() func([]*ComputeUnit) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recover
}

// rejectStopped disposes of units submitted to a stopped agent: with a
// recovery path installed they bounce back for rebinding (the pilot died
// between the placement pick and the submission landing), otherwise
// they fail with the stop cause.
func (a *agent) rejectStopped(us ...*ComputeUnit) {
	if rec := a.recovery(); rec != nil {
		rec(us)
		return
	}
	cause := a.stopCause()
	for _, u := range us {
		u.finish(UnitFailed, cause)
	}
}

// start begins scheduling queued units; called when the pilot activates.
func (a *agent) start() {
	a.mu.Lock()
	a.started = true
	a.requestPass() // unlocks
}

// halt is the teardown stop and stopWithReturn share: it marks the agent
// stopped with cause, empties the pending queue and the in-flight table,
// releases the idle executor pool and (real mode) the pilot's processes,
// and returns what it took. Both results are nil on an agent already
// stopped; running is nil on agents that do not track in-flight work.
func (a *agent) halt(cause error) (running, pend []*ComputeUnit) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return nil, nil
	}
	a.stopped = true
	a.stoppedFlag.Store(true)
	a.stopErr = cause
	pend = a.pend.drain()
	if a.inflight != nil {
		running = make([]*ComputeUnit, 0, len(a.inflight))
		for u := range a.inflight {
			running = append(running, u)
		}
		a.inflight = make(map[*ComputeUnit]flightInfo)
	}
	a.mu.Unlock()
	// Drain the idle executor pool: closing each slot releases its
	// parked (clock-detached) worker goroutine. stoppedFlag is already
	// set, so a worker racing onto the list exits before parking.
	a.idleMu.Lock()
	idle := a.idle
	a.idle = nil
	a.idleMu.Unlock()
	for w := idle; w != nil; w = w.next {
		close(w.ch)
	}
	// Real mode: reap every OS process still running for this pilot.
	// Their executors' RunUnit calls return with the kill error, and the
	// units either fail with the stop cause or — stolen for rebinding —
	// have every later effect generation-gated away. No orphans outlive
	// the agent.
	if r := a.sess.Cfg.Runner; r != nil {
		r.ReleasePilot(a.pilot.ID)
	}
	return running, pend
}

// stop fails all queued units and refuses future work. Running units
// fail with the stop cause at their executor's next stop check.
func (a *agent) stop(cause error) {
	_, doomed := a.halt(cause)
	for _, u := range doomed {
		u.finish(UnitFailed, cause)
	}
}

// stopWithReturn is stop for a pilot with a recovery path installed:
// instead of failing the backlog it returns the drained pending queue
// and the stolen in-flight units for the caller to rebind onto surviving
// pilots. A stolen unit's stale executor keeps running — virtual sleeps
// cannot be interrupted — but every subsequent effect is generation-gated
// (unit.go), so it exits harmlessly at its next gate.
func (a *agent) stopWithReturn(cause error) []*ComputeUnit {
	return displaced(a.halt(cause))
}

// displaced turns units taken off an agent — running lifted out of the
// in-flight table, pend drained from the queue — into the list to rebind.
// In-flight units come first (they are the oldest work), ordered by unit
// ID so the map iteration cannot leak nondeterminism into the rebind
// order, and only those whose steal lands; a pending unit already final
// (a racing external finish) keeps its result and is left out.
func displaced(running, pend []*ComputeUnit) []*ComputeUnit {
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	out := make([]*ComputeUnit, 0, len(running)+len(pend))
	for _, u := range running {
		if u.steal() {
			out = append(out, u)
		}
	}
	for _, u := range pend {
		if !u.State().Final() {
			out = append(out, u)
		}
	}
	return out
}

// drainPending removes and returns the live pending backlog without
// stopping the agent — the DrainPilot path: the unit manager has
// already withdrawn the pilot so no new work arrives, running units
// finish normally, and the returned backlog is rebound elsewhere.
func (a *agent) drainPending() []*ComputeUnit {
	a.mu.Lock()
	pend := a.pend.drain()
	a.mu.Unlock()
	return displaced(nil, pend)
}

// quiesce returns an event that fires once the agent has no running
// unit. Arm it only after the pending backlog is drained and no more
// work will be dispatched here (DrainPilot's handshake); with anything
// still running the event fires from the last release.
func (a *agent) quiesce() *vclock.Event {
	a.mu.Lock()
	if a.quiesceEv == nil {
		a.quiesceEv = vclock.NewEvent(a.sess.V, fmt.Sprintf("pilot %d quiesce", a.pilot.ID))
	}
	ev := a.quiesceEv
	fire := a.running == 0
	a.mu.Unlock()
	if fire {
		ev.Fire()
	}
	return ev
}

// loseNodes takes n nodes out of the allocation at the current instant —
// the FaultNodeLoss path. The last n node indices are chosen
// (deterministic and independent of occupancy); their free cores leave
// the scheduler immediately, and cores a running unit holds there are
// dropped when that unit releases. Every in-flight unit whose
// allocation touches a downed node is stolen (generation-gated, as in
// stopWithReturn) and the whole pending backlog is drained — a queued
// unit may no longer fit the shrunken pilot, and re-placement sorts
// feasible units back (often onto this same pilot's surviving nodes)
// while infeasible ones settle through the caller. Returns the
// displaced units; nil when the fault changed nothing.
func (a *agent) loseNodes(n int) []*ComputeUnit {
	a.mu.Lock()
	if a.stopped || n <= 0 {
		a.mu.Unlock()
		return nil
	}
	total := len(a.sched.nodeFree())
	if n > total {
		n = total
	}
	if a.down == nil {
		a.down = make(map[int]bool)
	}
	lost := 0
	for i := total - n; i < total; i++ {
		if a.down[i] {
			continue
		}
		a.down[i] = true
		lost += a.sched.markDown(i)
	}
	if lost == 0 {
		a.mu.Unlock()
		return nil
	}
	a.capCores.Add(-int64(lost))
	var hit []*ComputeUnit
	for u, fi := range a.inflight {
		touched := false
		fi.alloc.forEach(func(node, _ int) {
			if a.down[node] {
				touched = true
			}
		})
		if touched {
			hit = append(hit, u)
		}
	}
	for _, u := range hit {
		delete(a.inflight, u)
	}
	pend := a.pend.drain()
	a.mu.Unlock()
	return displaced(hit, pend)
}

// submit enqueues a unit. The unit must already be bound to this agent's
// pilot. The QUEUED transition is recorded before the unit becomes
// visible to the scheduler, so a pass can never execute it first; queue
// insertion and the pass request then share one critical section.
func (a *agent) submit(u *ComputeUnit) {
	if !a.admit(u) {
		return
	}
	u.setState(UnitQueued)
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		a.rejectStopped(u)
		return
	}
	a.pend.push(u)
	a.requestPass() // unlocks
}

// admit applies the static submission checks shared by submit and
// submitBatch, failing units that can never run here. It returns false
// when the unit was finished (rejected) and must not be queued.
func (a *agent) admit(u *ComputeUnit) bool {
	if a.isStopped() {
		a.rejectStopped(u)
		return false
	}
	// Units that can never be placed on this pilot are rejected here, at
	// submission, against the pilot's static shape — queueing them would
	// wedge the FIFO (and the watermark would rightly never trigger a
	// pass for them). The capacity is the live one: a pilot shrunk by
	// node loss no longer admits units only its lost nodes could hold.
	need := u.Desc.Cores
	if cap := a.capacityCores(); need > cap {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: unit %q needs %d cores, pilot %d holds %d",
			u.Desc.Name, need, a.pilot.ID, cap))
		return false
	}
	if m := a.pilot.backend.machine; !u.Desc.MPI && need > m.CoresPerNode {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: non-MPI unit %q needs %d cores, node has %d",
			u.Desc.Name, need, m.CoresPerNode))
		return false
	}
	return true
}

// submitBatch enqueues one wave's worth of units bound to this pilot as
// a single bulk submission: every unit is admitted and recorded QUEUED,
// then the whole group joins the pending FIFO under one critical
// section with one scheduling-pass request — instead of a lock
// acquisition and pass attempt per unit. Placement outcomes are
// identical to per-unit submission (passes are FIFO over pending), so
// this is purely a client-side cost reduction.
func (a *agent) submitBatch(us []*ComputeUnit) {
	queued := us[:0:0]
	for _, u := range us {
		if !a.admit(u) {
			continue
		}
		u.setState(UnitQueued)
		queued = append(queued, u)
	}
	if len(queued) == 0 {
		return
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		a.rejectStopped(queued...)
		return
	}
	for _, u := range queued {
		a.pend.push(u)
	}
	a.requestPass() // unlocks
}

// cancelQueued removes a unit from the pending queue if still there —
// an O(1) tombstone in its bucket, so cancelling under a deep backlog
// never touches unrelated entries.
func (a *agent) cancelQueued(u *ComputeUnit) {
	a.mu.Lock()
	ok := a.pend.cancel(u)
	a.mu.Unlock()
	if ok {
		u.finish(UnitCanceled, nil)
		return
	}
	// Not pending: either executing (runs to completion, finish() maps
	// Done to Canceled via the unit's canceled flag) or already final.
}

// load is the agent's backlog, queued plus running units — the signal
// PlaceLeastLoaded routes by.
func (a *agent) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pend.size() + a.running
}

// fitPossible reports whether any pending unit could be placed right now,
// per the queue's watermarks. Caller holds mu.
func (a *agent) fitPossible() bool {
	return a.pend.minNeedAny() <= a.sched.maxNodeFree() || a.pend.minNeedMPI() <= a.sched.freeCores()
}

// passStats snapshots the pass-cost counters (tests): passes run, units
// yielded, units placed, and the queue's cumulative internal work.
func (a *agent) passStats() (passes, scanned, placed, queueWork uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.passCount, a.passScanned, a.passPlaced, a.pend.work()
}

// requestPass is the tail every intake shares: mark the queue dirty and
// run the scheduling passes, unless the agent is not scheduling (not yet
// started, or stopped) or a pass is already running — it loops until
// clean, so it picks the flag up. Caller holds mu; released on return.
func (a *agent) requestPass() {
	if !a.started || a.stopped {
		a.mu.Unlock()
		return
	}
	a.dirty = true
	if a.inPass {
		a.mu.Unlock()
		return
	}
	if lr, ok := a.runPassesTakeOne(); ok { // unlocks
		a.spawnExec(lr)
	}
}

// utilSnapshot reads the utilization counters.
func (a *agent) utilSnapshot() UtilSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return UtilSnapshot{Units: a.utilUnits, CoreBusy: a.utilBusy}
}

// release returns an allocation's cores and reschedules. The watermark
// check makes completions O(1) when nothing pending can use the freed
// capacity. When the triggered pass places units, the first placement is
// handed back to the caller — a completing executor goroutine runs its
// successor directly instead of spawning a fresh goroutine per unit.
func (a *agent) release(lr launchReq) (launchReq, bool) {
	a.mu.Lock()
	a.releaseAllocLocked(lr.alloc)
	a.running--
	if a.runEnds != nil {
		delete(a.runEnds, lr.u)
	}
	if a.inflight != nil {
		// Only the entry of this very placement: the unit may already be
		// re-placed here under a newer generation.
		if fi, ok := a.inflight[lr.u]; ok && fi.gen == lr.gen {
			delete(a.inflight, lr.u)
		}
	}
	var quiesce *vclock.Event
	if a.running == 0 && a.quiesceEv != nil {
		quiesce = a.quiesceEv
	}
	if !a.started || a.stopped || a.pend.size() == 0 || !a.fitPossible() {
		a.mu.Unlock()
		if quiesce != nil {
			quiesce.Fire()
		}
		return launchReq{}, false
	}
	a.dirty = true
	if a.inPass {
		a.mu.Unlock()
		if quiesce != nil {
			quiesce.Fire()
		}
		return launchReq{}, false
	}
	next, ok := a.runPassesTakeOne() // unlocks
	if quiesce != nil {
		quiesce.Fire()
	}
	return next, ok
}

// releaseAllocLocked returns an allocation's cores to the scheduler,
// dropping shares on nodes lost to injected faults: the cores left with
// the node. Caller holds mu.
func (a *agent) releaseAllocLocked(alloc allocation) {
	if a.down == nil {
		a.sched.release(alloc)
		return
	}
	kept := allocation{node: -1}
	alloc.forEach(func(node, cores int) {
		if a.down[node] {
			return
		}
		if kept.node < 0 {
			kept.node, kept.cores = node, cores
		} else {
			kept.spill = append(kept.spill, nodeShare{node, cores})
		}
	})
	if kept.node >= 0 {
		a.sched.release(kept)
	}
}

// spawnExec starts lr on an executor: an idle pooled worker when one is
// parked, else a fresh goroutine. The worker is attached to the clock
// before the handoff so the engine cannot advance past the pending work.
func (a *agent) spawnExec(lr launchReq) {
	a.idleMu.Lock()
	w := a.idle
	if w != nil {
		a.idle = w.next
	}
	a.idleMu.Unlock()
	if w != nil {
		a.sess.V.Attach()
		w.ch <- lr // never blocks: cap 1, worker is parked empty
		return
	}
	a.sess.V.Go(func() { a.executorLoop(lr) })
}

// executorLoop is the body of one executor worker goroutine: run chains
// (execute), and between chains park detached on the idle list until the
// next wave dispatches work or stop drains the pool.
func (a *agent) executorLoop(lr launchReq) {
	var slot *execSlot
	for {
		a.execute(lr)
		// Chain dry: park as an idle worker, invisible to the clock.
		if slot == nil {
			slot = &execSlot{ch: make(chan launchReq, 1)}
		}
		a.idleMu.Lock()
		if a.stoppedFlag.Load() {
			a.idleMu.Unlock()
			return // still attached; Go's deregister balances
		}
		slot.next = a.idle
		a.idle = slot
		a.idleMu.Unlock()
		a.sess.V.Detach()
		next, ok := <-slot.ch
		if !ok {
			// Drained by stop: rejoin the clock so the enclosing Go
			// wrapper's deregister stays balanced, then exit.
			a.sess.V.Attach()
			return
		}
		lr = next
	}
}

// runPassesTakeOne drains the dirty flag: it runs scheduling passes until
// no new event arrived during the last one, spawning an executor per
// placement except the first of the cascade, which is returned for the
// caller to run itself (release) or spawn (requestPass). Caller holds mu
// with inPass false and dirty true; the mutex is released on return.
func (a *agent) runPassesTakeOne() (launchReq, bool) {
	var first launchReq
	var haveFirst bool
	a.inPass = true
	for a.dirty && a.started && !a.stopped {
		a.dirty = false
		launches := a.passLocked()
		if len(launches) == 0 {
			continue
		}
		a.mu.Unlock()
		for _, lr := range launches {
			if !haveFirst {
				first, haveFirst = lr, true
				continue
			}
			a.spawnExec(lr)
		}
		a.mu.Lock()
	}
	a.inPass = false
	a.mu.Unlock()
	return first, haveFirst
}

// passLocked performs one continuous-scheduling pass over the pending
// queue, returning the placements decided. Caller holds mu for the
// whole pass (so the queue's pass cursors see no interleaved mutation);
// the returned slice is agent-owned scratch, valid until the next pass.
func (a *agent) passLocked() []launchReq {
	if a.sched.freeCores() == 0 {
		// Saturated: nothing can be placed, leave the queue untouched.
		// (Never-placeable units cannot be in it: submit rejects them.)
		return nil
	}
	launches := a.scratch[:0]
	m := a.pilot.backend.machine
	backfill := a.sess.Cfg.Agent == Backfill

	// Backfill reservation state: set once the FIFO head blocks.
	blocked := false
	var shadow time.Duration // head's earliest possible start
	var extra int            // cores spare at the shadow time

	q := a.pend
	a.passCount++
	q.beginPass()
	for a.sched.freeCores() > 0 {
		u := q.next()
		if u == nil {
			break
		}
		a.passScanned++
		need := u.Desc.Cores
		// O(1) feasibility precheck against the index, then the EASY
		// reservation, then the actual placement.
		fits := need <= a.sched.maxNodeFree() || (u.Desc.MPI && need <= a.sched.freeCores())
		if !fits {
			// The precheck depends only on the unit's placement class
			// (need × MPI) and on free capacity, which never grows within
			// a pass — so every later unit of this class fails it too,
			// and the segmented queue stops consulting the whole bucket.
			if backfill && !blocked {
				blocked = true
				shadow, extra = a.reservationLocked(need)
			}
			q.block()
			continue
		}
		if backfill && blocked {
			// The blocked head holds a reservation: this unit may jump it
			// only if it cannot delay the head's shadow-time start —
			// either it is predicted to finish before the shadow time
			// (its cores are back when the head needs them), or it fits
			// in the spare cores the head will not need then. Spare-core
			// admissions consume the spare budget, so a stream of long
			// small units cannot collectively overrun the reservation.
			ok := false
			if dur, err := a.predictLocked(u); err == nil {
				ok = a.sess.V.Now()+m.TaskLaunchLatency+dur <= shadow
			}
			if !ok && need <= extra {
				ok = true
				extra -= need
			}
			if !ok {
				// The gate is per-unit — predicted durations differ
				// within a placement class — so only this unit waits;
				// its classmates still get their own gate check.
				q.skip()
				continue
			}
		}
		alloc, ok := a.sched.tryPlace(need, u.Desc.MPI)
		if !ok {
			// Defensive (the precheck implies placement succeeds): keep
			// just this unit, claiming no class-wide knowledge.
			if backfill && !blocked {
				blocked = true
				shadow, extra = a.reservationLocked(need)
			}
			q.skip()
			continue
		}
		a.running++
		if a.runEnds != nil {
			end := a.sess.V.Now() + m.TaskLaunchLatency
			if dur, err := a.predictLocked(u); err == nil {
				end += dur
			}
			a.runEnds[u] = runInfo{end: end, cores: need}
		}
		// Capture the rebind generation under the same lock that placed
		// the unit: a steal can only land before or after this critical
		// section, never between placement and capture.
		g := -1
		if a.inflight != nil {
			g = u.generation()
			a.inflight[u] = flightInfo{alloc: alloc, gen: g}
		}
		launches = append(launches, launchReq{u, alloc, g, a.launchLocked(m.TaskLaunchLatency)})
		q.placed()
	}
	q.endPass()
	a.passPlaced += uint64(len(launches))
	a.scratch = launches
	return launches
}

// launchLocked takes the next launcher slot for a unit placed now and
// returns the instant its launch completes. Caller holds mu.
func (a *agent) launchLocked(latency time.Duration) time.Duration {
	i := a.launchNext
	a.launchNext = (i + 1) % len(a.launchFree)
	end := max(a.sess.V.Now(), a.launchFree[i]) + latency
	a.launchFree[i] = end
	return end
}

// predictLocked estimates a unit's execution duration via the cost model
// (the same call executeUnit will make). Used by the Backfill policy;
// staging and launcher queueing are not modelled — the reservation is a
// scheduling heuristic, exactly as walltime-based EASY backfill is at the
// batch layer.
func (a *agent) predictLocked(u *ComputeUnit) (time.Duration, error) {
	return a.sess.Cost.Duration(u.Desc.Kernel, u.Desc.Params, u.Desc.Cores, a.pilot.backend.machine)
}

// reservationLocked computes the blocked head's EASY reservation from the
// running units' projected completions: the shadow time at which enough
// cores will have been freed for the head, and the cores spare beyond the
// head's need at that moment. Projected completions sharing the shadow
// time are all counted, keeping the result independent of map order.
// Caller holds mu.
func (a *agent) reservationLocked(headNeed int) (shadow time.Duration, extra int) {
	free := a.sched.freeCores()
	infos := make([]runInfo, 0, len(a.runEnds))
	for _, ri := range a.runEnds {
		infos = append(infos, ri)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].end < infos[j].end })
	acc := 0
	for i, ri := range infos {
		acc += ri.cores
		if free+acc >= headNeed && (i+1 == len(infos) || infos[i+1].end != ri.end) {
			return ri.end, free + acc - headNeed
		}
	}
	// The head can never start (larger than capacity would be fatal, so
	// this is only reachable transiently): forbid all overtaking.
	return 0, -1
}

// execute is an executor goroutine: it runs the launched unit's
// lifecycle, releases its allocation, and — when the release's pass hands
// one back — continues directly with a successor unit, so a saturated
// pilot reuses one goroutine per core chain instead of spawning one per
// unit. The chain is also what feeds the vclock engine's direct-handoff
// fast path: the successor's launch and execution sleeps issue from an
// already-running process instead of a freshly woken goroutine.
func (a *agent) execute(lr launchReq) {
	for {
		a.executeUnit(lr)
		next, ok := a.release(lr)
		if !ok {
			return
		}
		lr = next
	}
}

// executeUnit runs one unit's full lifecycle on its allocation: launch,
// staging-in, execution (virtual sleep of the cost-model duration plus the
// optional real Work), staging-out. The caller releases the allocation.
// Every effect is gated on lr.gen: when the unit was stolen for rebinding
// mid-flight, this (now stale) executor's transitions, profiler records,
// utilization bumps, and finish are all discarded — the rebound run owns
// them. lr.gen is -1 (no gating) on agents without in-flight tracking.
func (a *agent) executeUnit(lr launchReq) {
	u := lr.u
	v := a.sess.V
	m := a.pilot.backend.machine
	prof := a.sess.Prof
	vocab := &a.sess.vocab

	// Launch: wait out the launcher slot the pass computed.
	v.Charge(lr.launchEnd - v.Now())
	if a.isStopped() {
		u.finishFrom(lr.gen, UnitFailed, a.stopCause())
		return
	}

	// Input staging.
	if len(u.Desc.InputStaging) > 0 {
		if !u.setStateFrom(lr.gen, UnitStagingInput) {
			return
		}
		prof.RecordID(u.entityID, vocab.evStageinStart)
		if _, err := a.pilot.backend.mover.Run(u.Desc.InputStaging); err != nil {
			u.finishFrom(lr.gen, UnitFailed, fmt.Errorf("input staging: %w", err))
			return
		}
		if u.staleGen(lr.gen) {
			return
		}
		prof.RecordID(u.entityID, vocab.evStageinStop)
	}

	// Execution.
	dur, err := a.sess.Cost.Duration(u.Desc.Kernel, u.Desc.Params, u.Desc.Cores, m)
	if err != nil {
		u.finishFrom(lr.gen, UnitFailed, err)
		return
	}
	if !u.setStateFrom(lr.gen, UnitExecuting) {
		return
	}
	start := v.Now()
	prof.RecordID(u.entityID, vocab.evExecStart)
	var execErr error
	if r := a.sess.Cfg.Runner; r != nil {
		// Real mode: the runner blocks for as long as the unit really
		// takes (an OS process, or a wall sleep of the modelled duration
		// for kernels without a command). The window is still bracketed
		// by the same records and accounting as the simulated path.
		execErr = r.RunUnit(ExecRequest{
			PilotID:    a.pilot.ID,
			PilotCores: a.pilot.Desc.Cores,
			Unit:       u.Desc.Name,
			UnitID:     u.ID,
			Attempt:    u.Desc.Attempt,
			Kernel:     u.Desc.Kernel,
			Executable: u.Desc.Executable,
			Args:       u.Desc.Args,
			Cores:      u.Desc.Cores,
			Model:      dur,
		})
	} else {
		v.Sleep(dur)
	}
	stop := v.Now()
	if !u.markExecFrom(lr.gen, start, stop) {
		return
	}
	prof.RecordID(u.entityID, vocab.evExecStop)
	// Utilization counters are bumped before the unit can turn final, so
	// a snapshot taken when a campaign's last unit settles cannot miss
	// its execution.
	a.mu.Lock()
	a.utilUnits++
	a.utilBusy += (stop - start) * time.Duration(u.Desc.Cores)
	a.mu.Unlock()

	if execErr != nil {
		u.finishFrom(lr.gen, UnitFailed, fmt.Errorf("unit %q exec: %w", u.Desc.Name, execErr))
		return
	}
	if u.Desc.FailOn != nil && u.Desc.FailOn(u.Desc.Attempt) {
		u.finishFrom(lr.gen, UnitFailed, fmt.Errorf("unit %q failed (injected, attempt %d)",
			u.Desc.Name, u.Desc.Attempt))
		return
	}
	if a.isStopped() {
		u.finishFrom(lr.gen, UnitFailed, a.stopCause())
		return
	}
	if u.Desc.Work != nil {
		if err := u.Desc.Work(); err != nil {
			u.finishFrom(lr.gen, UnitFailed, fmt.Errorf("unit %q work: %w", u.Desc.Name, err))
			return
		}
	}

	// Output staging.
	if len(u.Desc.OutputStaging) > 0 {
		if !u.setStateFrom(lr.gen, UnitStagingOutput) {
			return
		}
		prof.RecordID(u.entityID, vocab.evStageoutStart)
		if _, err := a.pilot.backend.mover.Run(u.Desc.OutputStaging); err != nil {
			u.finishFrom(lr.gen, UnitFailed, fmt.Errorf("output staging: %w", err))
			return
		}
		if u.staleGen(lr.gen) {
			return
		}
		prof.RecordID(u.entityID, vocab.evStageoutStop)
	}

	u.finishFrom(lr.gen, UnitDone, nil)
}

func (a *agent) isStopped() bool {
	return a.stoppedFlag.Load()
}

// stopCause returns the stop error; valid once isStopped reports true.
func (a *agent) stopCause() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stopErr
}

// freeCores reports currently free cores (tests/diagnostics).
func (a *agent) freeCores() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.freeCores()
}

// nodeFree snapshots per-node free cores (tests/diagnostics).
func (a *agent) nodeFree() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.nodeFree()
}
