package pilot

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/profile"
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
//   - a pass runs whole under the agent lock and arms each placement's
//     run (a unitRun driven by clock timers, not a goroutine) as it
//     places it, so no event can interleave with a pass;
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
	// stoppedFlag mirrors stopped for the unit runs' lock-free checks on
	// the per-unit hot path; written under mu, read via atomic.
	stoppedFlag atomic.Bool

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

	// freeRuns recycles released run records (under mu): a pilot keeps
	// as many as it ever ran at once, so a steady stream of placements
	// allocates none.
	freeRuns *unitRun

	// passCount/passScanned/passPlaced instrument the scheduling passes
	// (under mu): passes run, units yielded by the queue, units placed.
	// Together with the queue's own passWork counter they let the pass-cost
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
// releases (real mode) the pilot's processes, and returns what it took.
// Both results are nil on an agent already stopped; running is nil on
// agents that do not track in-flight work.
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
	// Real mode: reap every OS process still running for this pilot.
	// Their runs' RunUnit calls return with the kill error, and the
	// units either fail with the stop cause or — stolen for rebinding —
	// have every later effect generation-gated away. No orphans outlive
	// the agent.
	if r := a.sess.Cfg.Runner; r != nil {
		r.ReleasePilot(a.pilot.ID)
	}
	return running, pend
}

// stop fails all queued units and refuses future work. Running units
// fail with the stop cause at their run's next stop check.
func (a *agent) stop(cause error) {
	_, doomed := a.halt(cause)
	for _, u := range doomed {
		u.finish(UnitFailed, cause)
	}
}

// stopWithReturn is stop for a pilot with a recovery path installed:
// instead of failing the backlog it returns the drained pending queue
// and the stolen in-flight units for the caller to rebind onto surviving
// pilots. A stolen unit's stale run is not cancelled — its pending timer
// stays armed — but every subsequent effect is generation-gated
// (unit.go), so it ends harmlessly at its next gate.
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
	need := u.desc.Cores
	if cap := a.capacityCores(); need > cap {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: unit %q needs %d cores, pilot %d holds %d",
			u.name, need, a.pilot.ID, cap))
		return false
	}
	if m := a.pilot.backend.machine; !u.desc.MPI && need > m.CoresPerNode {
		u.finish(UnitFailed, fmt.Errorf(
			"pilot: non-MPI unit %q needs %d cores, node has %d",
			u.name, need, m.CoresPerNode))
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
	// The admitted units are us itself until a unit is rejected; only
	// then are they copied out.
	queued, all := us, true
	for i, u := range us {
		if !a.admit(u) {
			if all {
				queued, all = append(us[:0:0], us[:i]...), false
			}
			continue
		}
		u.setState(UnitQueued)
		if !all {
			queued = append(queued, u)
		}
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

// requestPass is the tail every intake shares: run a scheduling pass
// unless the agent is not scheduling (not yet started, or stopped).
// Caller holds mu; released on return.
func (a *agent) requestPass() {
	if a.started && !a.stopped {
		a.passLocked()
	}
	a.mu.Unlock()
}

// utilSnapshot reads the utilization counters.
func (a *agent) utilSnapshot() UtilSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return UtilSnapshot{Units: a.utilUnits, CoreBusy: a.utilBusy}
}

// release is a run's last step: it returns the allocation's cores, puts
// the record back on the free list, and reschedules — the pass arms the
// successors the freed capacity admits. The watermark check makes
// completions O(1) when nothing pending can use the freed capacity.
func (a *agent) release(r *unitRun) {
	a.mu.Lock()
	a.releaseAllocLocked(r.alloc)
	a.running--
	if a.runEnds != nil {
		delete(a.runEnds, r.u)
	}
	if a.inflight != nil {
		// Only the entry of this very placement: the unit may already be
		// re-placed here under a newer generation.
		if fi, ok := a.inflight[r.u]; ok && fi.gen == r.gen {
			delete(a.inflight, r.u)
		}
	}
	*r = unitRun{a: a, step: r.step, next: a.freeRuns}
	a.freeRuns = r
	var quiesce *vclock.Event
	if a.running == 0 && a.quiesceEv != nil {
		quiesce = a.quiesceEv
	}
	if a.started && !a.stopped && a.pend.size() > 0 && a.fitPossible() {
		a.passLocked()
	}
	a.mu.Unlock()
	if quiesce != nil {
		quiesce.Fire()
	}
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

// passLocked performs one continuous-scheduling pass over the pending
// queue and arms a run for each placement, in placement order: a timer
// at its launch end. Waiting out the launcher slot is modelled overhead,
// so the wait is what the clock charges — nothing on the wall clock.
// Caller holds mu for the whole pass (so the queue's pass cursors see no
// interleaved mutation).
func (a *agent) passLocked() {
	if a.sched.freeCores() == 0 {
		// Saturated: nothing can be placed, leave the queue untouched.
		// (Never-placeable units cannot be in it: submit rejects them.)
		return
	}
	m := a.pilot.backend.machine
	v := a.sess.V
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
		need := u.desc.Cores
		// O(1) feasibility precheck against the index, then the EASY
		// reservation, then the actual placement.
		fits := need <= a.sched.maxNodeFree() || (u.desc.MPI && need <= a.sched.freeCores())
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
		alloc, ok := a.sched.tryPlace(need, u.desc.MPI)
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
		r := a.newRunLocked(u, alloc, g)
		v.After(v.Charged(a.launchLocked(m.TaskLaunchLatency)-v.Now()), r.step)
		a.passPlaced++
		q.placed()
	}
	q.endPass()
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
	return a.sess.Cost.Duration(u.desc.Kernel, u.desc.Params, u.desc.Cores, a.pilot.backend.machine)
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

// unitRun is one placement's run: the unit, its allocation, and the
// rebind generation captured at placement (-1 on agents that do not
// track in-flight work). No goroutine carries a run. Clock timers drive
// its chain of steps — launch end, stage-in, exec start, exec end
// (simulation), exec stop and stage-out, finish, release — and a step
// that only records or computes runs inside the timer callback. A step
// that can block (a staging mover, the unit's Work) runs on a process of
// its own, which continues the same chain when the call returns; the
// real-mode runner needs the wall clock, where the chain already runs on
// a goroutine of its own. Every effect is gated on gen: when the unit was stolen for rebinding
// mid-flight, this stale run's transitions, profiler records,
// utilization bumps and finish are all discarded — the rebound run owns
// them — and only its release still happens.
type unitRun struct {
	a     *agent
	u     *ComputeUnit
	alloc allocation
	gen   int
	start time.Duration // exec start
	// executing selects the timer step resume runs: exec end, not
	// launch end.
	executing bool
	// step is resume bound once per record, so arming a timer allocates
	// only the timer.
	step func()
	next *unitRun // free list
}

// newRunLocked takes a run record for a unit placed now. Caller holds
// mu.
func (a *agent) newRunLocked(u *ComputeUnit, alloc allocation, gen int) *unitRun {
	r := a.freeRuns
	if r == nil {
		r = &unitRun{a: a}
		r.step = r.resume
	} else {
		a.freeRuns, r.next = r.next, nil
	}
	r.u, r.alloc, r.gen = u, alloc, gen
	return r
}

// resume is the run's timer callback: launch end, or exec end once the
// window is open.
func (r *unitRun) resume() {
	if r.executing {
		r.executed(nil)
	} else {
		r.launched()
	}
}

// launched is the launch-end step: the stop check, then input staging or
// straight to execution.
func (r *unitRun) launched() {
	a, u := r.a, r.u
	if a.isStopped() {
		r.finish(UnitFailed, a.stopCause())
		return
	}
	if len(u.desc.InputStaging) == 0 {
		r.execute()
		return
	}
	vocab := &a.sess.vocab
	r.stage(UnitStagingInput, u.desc.InputStaging, vocab.evStageinStart, vocab.evStageinStop, "input", r.execute)
}

// stage runs one staging step: the state transition and start record
// here, then the mover — it sleeps out the modelled transfer — on a
// process of its own, which records the stop and continues with then.
func (r *unitRun) stage(st UnitState, dirs []Directive, evStart, evStop profile.NameID, what string, then func()) {
	a, u := r.a, r.u
	if !u.setStateFrom(r.gen, st) {
		a.release(r)
		return
	}
	a.sess.Prof.RecordID(u.entityID, evStart)
	a.sess.V.Go(func() {
		if _, err := a.pilot.backend.mover.Run(dirs); err != nil {
			r.finish(UnitFailed, fmt.Errorf("%s staging: %w", what, err))
			return
		}
		if u.staleGen(r.gen) {
			a.release(r)
			return
		}
		a.sess.Prof.RecordID(u.entityID, evStop)
		then()
	})
}

// execute opens the execution window: the cost-model duration, EXECUTING
// and exec_start, then the window itself — a timer of the modelled
// duration in simulation, the runner's blocking call in real mode.
func (r *unitRun) execute() {
	a, u := r.a, r.u
	v := a.sess.V
	dur, err := a.sess.Cost.Duration(u.desc.Kernel, u.desc.Params, u.desc.Cores, a.pilot.backend.machine)
	if err != nil {
		r.finish(UnitFailed, err)
		return
	}
	if !u.setStateFrom(r.gen, UnitExecuting) {
		a.release(r)
		return
	}
	r.start = v.Now()
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evExecStart)
	runner := a.sess.Cfg.Runner
	if runner == nil {
		r.executing = true
		v.After(dur, r.step)
		return
	}
	// Real mode: the runner blocks for as long as the unit really takes
	// (an OS process, or a wall sleep of the modelled duration for
	// kernels without a command). The window is still bracketed by the
	// same records and accounting as the simulated one. A runner needs
	// the wall clock (NewSession), where this step already runs on a
	// goroutine of its own, so the call blocks here.
	r.executed(runner.RunUnit(ExecRequest{
		PilotID:    a.pilot.ID,
		PilotCores: a.pilot.Desc.Cores,
		Unit:       u.name,
		UnitID:     u.ID,
		Attempt:    int(u.attempt),
		Kernel:     u.desc.Kernel,
		Executable: u.desc.Executable,
		Args:       u.desc.Args,
		Cores:      u.desc.Cores,
		Model:      dur,
	}))
}

// executed closes the execution window: exec_stop and the utilization
// counters, then the failure checks, the unit's Work (on a process: it
// may block) and output staging.
func (r *unitRun) executed(execErr error) {
	a, u := r.a, r.u
	stop := a.sess.V.Now()
	if !u.markExecFrom(r.gen, r.start, stop) {
		a.release(r)
		return
	}
	a.sess.Prof.RecordID(u.entityID, a.sess.vocab.evExecStop)
	// Utilization counters are bumped before the unit can turn final, so
	// a snapshot taken when a campaign's last unit settles cannot miss
	// its execution.
	a.mu.Lock()
	a.utilUnits++
	a.utilBusy += (stop - r.start) * time.Duration(u.desc.Cores)
	a.mu.Unlock()

	switch {
	case execErr != nil:
		r.finish(UnitFailed, fmt.Errorf("unit %q exec: %w", u.name, execErr))
	case u.desc.FailOn != nil && u.desc.FailOn(int(u.attempt)):
		r.finish(UnitFailed, fmt.Errorf("unit %q failed (injected, attempt %d)",
			u.name, int(u.attempt)))
	case a.isStopped():
		r.finish(UnitFailed, a.stopCause())
	case u.desc.Work != nil:
		a.sess.V.Go(func() {
			if err := u.desc.Work(); err != nil {
				r.finish(UnitFailed, fmt.Errorf("unit %q work: %w", u.name, err))
				return
			}
			r.stageOut()
		})
	default:
		r.stageOut()
	}
}

// stageOut runs output staging, if any, and finishes the unit DONE.
func (r *unitRun) stageOut() {
	if len(r.u.desc.OutputStaging) == 0 {
		r.finish(UnitDone, nil)
		return
	}
	vocab := &r.a.sess.vocab
	r.stage(UnitStagingOutput, r.u.desc.OutputStaging, vocab.evStageoutStart, vocab.evStageoutStop, "output",
		func() { r.finish(UnitDone, nil) })
}

// finish settles the unit (gated on gen) and releases the run.
func (r *unitRun) finish(st UnitState, err error) {
	r.u.finishFrom(r.gen, st, err)
	r.a.release(r)
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
