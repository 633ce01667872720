package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"entk/internal/kernels"
	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// This file is the resource-binding layer: the paper's core claim is
// that decoupling workload description from resource acquisition lets
// one ensemble application run unchanged across heterogeneous HPC
// resources (Section III-B3), and the ResourceSet is where that
// decoupling lives. A set holds an ordered set of pilots — on one
// machine or several — behind one session, one unit manager, and one
// shared submission batcher; every executor (pattern runs and
// AppManager campaigns alike) runs against a set, and a classic
// ResourceHandle is a set of one spec (handle.go). Placement of each
// unit onto a pilot is late-bound at dispatch time through a pluggable
// pilot.PlacementPolicy, so a campaign's tasks drain to whichever
// machine has capacity — or, with tag affinity, to the machine
// provisioned for them.

// Config carries the toolkit's runtime knobs. None of them selects an
// implementation: patterns always run on the graph executor.
type Config struct {
	// Clock is the virtual clock driving the simulation. Required.
	Clock vclock.Clock
	// Cost predicts kernel runtimes; nil installs the builtin kernel
	// registry.
	Cost pilot.CostModel
	// Runtime tunes the pilot layer; zero value takes pilot defaults.
	Runtime pilot.Config
	// MaxRetries is the default per-task retry budget (0 = no retries).
	MaxRetries int
}

// defaultCost lazily builds the shared builtin kernel registry used by
// every set that does not bring its own cost model. The registry is
// concurrency-safe and sets only read from it, so sharing one instance
// avoids rebuilding the builtin table per set.
var defaultCost = sync.OnceValue(func() pilot.CostModel { return kernels.NewRegistry() })

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Clock == nil {
		return c, fmt.Errorf("core: config needs a clock")
	}
	if c.Cost == nil {
		c.Cost = defaultCost()
	}
	zero := pilot.Config{}
	if c.Runtime == zero {
		c.Runtime = pilot.DefaultConfig()
	}
	return c, nil
}

// PilotSpec requests one pilot of a resource set.
type PilotSpec struct {
	// Resource is the machine label, e.g. "xsede.comet".
	Resource string
	// Cores is the pilot size on that machine.
	Cores int
	// Walltime bounds the allocation.
	Walltime time.Duration
	// Queue and Project pass through to the machine's batch system.
	Queue   string
	Project string
	// Tags label the pilot for tag-affinity placement (matched against
	// Kernel.Tags), e.g. "mpi" on the wide-node machine.
	Tags []string
	// ActivationDeadline, if positive, bounds how long the pilot may sit
	// unactivated in the batch queue, measured from its submission: a
	// pilot still PENDING at the deadline is killed, and the campaign
	// proceeds on the surviving pilots (work the survivors cannot hold
	// settles as a partial PatternError) instead of gating forever on a
	// stuck resource request. Zero waits indefinitely — the seed
	// behaviour.
	ActivationDeadline time.Duration
}

// validate rejects malformed specs.
func (s *PilotSpec) validate() error {
	switch {
	case s.Resource == "":
		return fmt.Errorf("core: pilot spec needs a resource")
	case s.Cores < 1:
		return fmt.Errorf("core: pilot spec needs at least one core")
	case s.Walltime <= 0:
		return fmt.Errorf("core: pilot spec needs a positive walltime")
	}
	return nil
}

// ResourceSet acquires an ordered set of pilots — possibly on different
// machines — and runs patterns and campaigns on them: Allocate submits
// every pilot, Run/AppManager execute work with units late-bound to
// pilots per the Placement policy, Deallocate releases everything.
// Execute chains Allocate, Run and Deallocate into the full TTC report.
type ResourceSet struct {
	// Specs are the requested pilots, in set order.
	Specs []PilotSpec
	// Placement selects the unit-to-pilot late-binding policy. Nil
	// installs none on a single-pilot set — every unit goes to the one
	// pilot — and defaults to round-robin over structurally eligible
	// pilots for multi-pilot sets. Set it before Allocate.
	Placement pilot.PlacementPolicy
	// EagerSubmit makes Run and AppManager.Run start submitting as soon
	// as the FIRST pilot of the set activates instead of waiting for
	// all of them: units late-bound to already-active pilots start
	// immediately, while units bound to still-queued pilots wait in
	// those pilots' agents and start on activation — so a
	// slow-activating machine no longer delays work routed to a fast
	// one. The reported QueueWait is then that of the active pilot with
	// the smallest queue wait, ties going to set order (the bound actual
	// work start is measured against); per-pilot waits appear on the
	// campaign utilization rows. Off by default: the run start gates on
	// the slowest pilot, the seed semantics the recorded multi-pilot
	// tiers pin. Set it before Run.
	EagerSubmit bool
	// Faults, if non-nil, schedules deterministic resource failures —
	// pilot deaths, walltime expiries, node losses — at exact virtual
	// instants, measured from the moment Allocate arms the plan (its
	// return). The virtual clock makes the same plan bit-reproducible
	// run after run; pick instants no cost model produces (odd
	// nanosecond offsets) so fault wakes never race model events. Set it
	// before Allocate.
	Faults *pilot.FaultPlan
	// Rebind opts displaced units into recovery: when a pilot dies or
	// loses nodes, its pending backlog and in-flight units are returned
	// and re-dispatched onto the surviving pilots through the placement
	// policy, instead of failing with the death cause. Units no survivor
	// can hold fail placement and settle through the executor's retry
	// budget as a partial PatternError — the campaign always settles,
	// it never hangs on lost work. Set it before Allocate.
	Rebind bool

	cfg    Config
	sess   *pilot.Session
	pm     *pilot.PilotManager
	um     *pilot.UnitManager
	batch  *pilot.WaveBatcher
	pilots []*pilot.ComputePilot

	// Core-layer profiler ids, interned once at Allocate: the toolkit's
	// own control-plane phases record onto the "core" entity so the TTC
	// decomposition's constant overhead is reconstructible from events.
	coreEnt                        profile.EntityID
	evBootstrapDone, evPilotSubmit profile.NameID
	evRunStart, evRunStop          profile.NameID
	evDeallocStart, evDeallocStop  profile.NameID

	mu           sync.Mutex
	allocated    bool
	allocCtl     time.Duration // control-plane time spent in Allocate
	deallocCtl   time.Duration // control-plane time spent in Deallocate
	queueWait    time.Duration
	agentStartup time.Duration
	guards       []*vclock.Timer // activation deadlines and fault arms; stopped at Deallocate
	// settleEv releases an EagerSubmit waitActive; armed by the waiter,
	// fired through pilotSettled.
	settleEv *vclock.Event
}

// NewResourceSet validates the specs and prepares a set. Placement may
// be assigned on the returned set before Allocate.
func NewResourceSet(specs []PilotSpec, cfg Config) (*ResourceSet, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: resource set needs at least one pilot spec")
	}
	for i := range specs {
		if err := specs[i].validate(); err != nil {
			return nil, fmt.Errorf("core: pilot spec %d: %w", i+1, err)
		}
	}
	return &ResourceSet{
		Specs: append([]PilotSpec(nil), specs...),
		cfg:   full,
	}, nil
}

// BindingLabel names the set in reports: the single machine label, or
// the spec labels joined with "+" in set order.
func (rs *ResourceSet) BindingLabel() string {
	if len(rs.Specs) == 1 {
		return rs.Specs[0].Resource
	}
	names := make([]string, len(rs.Specs))
	for i, s := range rs.Specs {
		names[i] = s.Resource
	}
	return strings.Join(names, "+")
}

// TotalCores is the summed pilot size.
func (rs *ResourceSet) TotalCores() int {
	total := 0
	for _, s := range rs.Specs {
		total += s.Cores
	}
	return total
}

// Session exposes the underlying runtime session (profiling, tests).
func (rs *ResourceSet) Session() *pilot.Session { return rs.sess }

// Pilots returns the allocated pilots in set order, nil before
// Allocate. Pilots added mid-campaign (AddPilot) appear after the
// initial specs; drained pilots remain listed — their utilization rows
// cover the part of the campaign they served.
func (rs *ResourceSet) Pilots() []*pilot.ComputePilot {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*pilot.ComputePilot(nil), rs.pilots...)
}

// ControlOverhead returns the toolkit's control-plane time so far
// (Allocate plus any completed Deallocate) — what Execute patches into
// Report.CoreOverhead after deallocation. Campaign runners that
// sequence Allocate / AppManager.Run / Deallocate themselves use it to
// account the dealloc phase like the pattern path does.
func (rs *ResourceSet) ControlOverhead() time.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.allocCtl + rs.deallocCtl
}

// initOverhead models toolkit bootstrap (module loading, state database
// connection); part of the constant core overhead.
const initOverhead = time.Second

// Allocate initialises the toolkit and submits every pilot's resource
// request, in set order. It returns once the requests are submitted
// (not when they become active); Run waits for activation. The time
// spent here is control-plane work and counts toward the core
// overhead. A fault plan that does not fit the set is rejected before
// anything is charged or submitted, and a submission failure cancels the
// pilots already submitted; either leaves the set unallocated.
func (rs *ResourceSet) Allocate() error {
	rs.mu.Lock()
	if rs.allocated {
		rs.mu.Unlock()
		return fmt.Errorf("core: resource set already allocated")
	}
	if rs.Faults != nil {
		if err := rs.Faults.Validate(len(rs.Specs)); err != nil {
			rs.mu.Unlock()
			return err
		}
	}
	rs.allocated = true
	rs.mu.Unlock()

	v := rs.cfg.Clock
	t0 := v.Now()
	v.Charge(initOverhead)
	rs.sess = pilot.NewSession(v, rs.cfg.Cost, rs.cfg.Runtime)
	prof := rs.sess.Prof
	rs.coreEnt = prof.Intern("core")
	rs.evBootstrapDone = prof.InternName("bootstrap_done")
	rs.evPilotSubmit = prof.InternName("pilot_submitted")
	rs.evRunStart = prof.InternName("run_start")
	rs.evRunStop = prof.InternName("run_stop")
	rs.evDeallocStart = prof.InternName("dealloc_start")
	rs.evDeallocStop = prof.InternName("dealloc_stop")
	prof.RecordID(rs.coreEnt, rs.evBootstrapDone)
	rs.pm = pilot.NewPilotManager(rs.sess)
	rs.um = pilot.NewUnitManager(rs.sess)
	if rs.Placement != nil {
		rs.um.SetPlacement(rs.Placement)
	} else if len(rs.Specs) > 1 || rs.Rebind {
		// Multi-pilot sets need eligibility-aware placement (the unit
		// manager's bare round-robin would route units to pilots that
		// must reject them); single-pilot sets need none. Rebind always
		// needs it: re-dispatch must exclude the dead pilot, which only
		// eligibility-aware placement does.
		rs.um.SetPlacement(pilot.PlaceRoundRobin())
	}
	rs.batch = pilot.NewWaveBatcher(rs.um)
	for _, spec := range rs.Specs {
		if _, err := rs.submitPilot(spec); err != nil {
			// Unwind: cancel and await the pilots already submitted,
			// then drop the half-built runtime so a corrected retry
			// starts from a clean session.
			for _, q := range rs.pilots {
				q.Cancel()
			}
			for _, q := range rs.pilots {
				q.WaitFinal()
			}
			rs.pilots = nil
			rs.sess, rs.pm, rs.um, rs.batch = nil, nil, nil, nil
			rs.stopGuards()
			rs.mu.Lock()
			rs.allocated = false
			rs.mu.Unlock()
			return err
		}
	}
	if rs.Faults != nil {
		var displaced func([]*pilot.ComputeUnit)
		if rs.Rebind {
			displaced = rs.redispatch
		}
		armed, err := rs.Faults.Arm(v, rs.pilots, displaced)
		if err != nil {
			return err
		}
		rs.addGuards(armed...)
	}
	rs.mu.Lock()
	rs.allocCtl = v.Now() - t0
	rs.mu.Unlock()
	return nil
}

// addGuards records timers for stopGuards to disarm.
func (rs *ResourceSet) addGuards(ts ...*vclock.Timer) {
	rs.mu.Lock()
	rs.guards = append(rs.guards, ts...)
	rs.mu.Unlock()
}

// stopGuards disarms the set's pending deadline and fault timers. A
// stopped virtual timer still sleeps to its instant (no simulated
// timeline moves); on the wall clock stopping is what keeps an armed
// guard from holding the whole session until its instant.
func (rs *ResourceSet) stopGuards() {
	rs.mu.Lock()
	guards := rs.guards
	rs.guards = nil
	rs.mu.Unlock()
	for _, t := range guards {
		t.Stop()
	}
}

// submitPilot submits one spec's pilot and joins it to the set: late
// binding, the pilot_submitted record, the Rebind recovery path, the
// settle callback and the activation deadline. Allocate and AddPilot
// share it.
func (rs *ResourceSet) submitPilot(spec PilotSpec) (*pilot.ComputePilot, error) {
	p, err := rs.pm.Submit(pilot.PilotDescription{
		Resource: spec.Resource,
		Cores:    spec.Cores,
		Walltime: spec.Walltime,
		Queue:    spec.Queue,
		Project:  spec.Project,
		Tags:     spec.Tags,
	})
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	rs.pilots = append(rs.pilots, p)
	rs.mu.Unlock()
	rs.um.AddPilot(p)
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evPilotSubmit)
	if rs.Rebind {
		// Installed before the pilot can activate (agent boot is still
		// ahead), so every placement is tracked and teardown returns the
		// backlog instead of failing it.
		p.SetRecovery(rs.redispatch)
	}
	p.SetSettle(rs.pilotSettled)
	if spec.ActivationDeadline > 0 {
		deadline := spec.ActivationDeadline
		t := rs.cfg.Clock.After(deadline, func() {
			if p.State() == pilot.PilotPending {
				p.Kill(fmt.Errorf("core: pilot %d missed activation deadline %v", p.ID, deadline))
			}
		})
		rs.addGuards(t)
	}
	return p, nil
}

// pilotSettled is every pilot's settle callback, run inline on the
// clock at the pilot's activation and at its final transition. A dead
// pilot of a Rebind set leaves late binding, so the set's "no pilots"
// accounting stays honest when every pilot dies (placement would skip
// it anyway). A waiting EagerSubmit waitActive is released once a pilot
// is active or none is still pending, through an After(0): it wakes
// after the instant's timer batch, with every pilot activating at this
// instant already active.
func (rs *ResourceSet) pilotSettled(p *pilot.ComputePilot) {
	if rs.Rebind && p.State().Final() {
		rs.um.RemovePilot(p)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if ev := rs.settleEv; ev != nil {
		if _, ok := rs.firstActiveLocked(); ok {
			rs.settleEv = nil
			rs.cfg.Clock.After(0, ev.Fire)
		}
	}
}

// firstActiveLocked returns the active pilot with the smallest queue
// wait, ties going to set order, and whether an EagerSubmit wait is
// over: some pilot is active, or none is still pending. rs.mu is held.
func (rs *ResourceSet) firstActiveLocked() (*pilot.ComputePilot, bool) {
	var winner *pilot.ComputePilot
	pending := false
	for _, p := range rs.pilots {
		switch p.State() {
		case pilot.PilotActive:
			if winner == nil || p.QueueWait() < winner.QueueWait() {
				winner = p
			}
		case pilot.PilotPending:
			pending = true
		}
	}
	return winner, winner != nil || !pending
}

// redispatch is the recovery callback rebinding displaced units: they
// re-enter late binding over the surviving pilots at the current instant
// (re-dispatch charges no client-side submission cost — the units were
// already created and paid it). Units no survivor can hold fail
// placement and settle through the executor's retry budget.
func (rs *ResourceSet) redispatch(units []*pilot.ComputeUnit) {
	rs.um.Dispatch(units)
}

// waitActive blocks until the set can accept units, recording the
// queue wait (which is resource wait, not toolkit overhead). By
// default it waits for every pilot and reports the slowest one's wait
// — work cannot start on the full set before then, and that is the
// bound the campaign TTC is measured against. With EagerSubmit it
// waits only for the first activation and reports the wait of the
// active pilot firstActiveLocked picks: submission begins against it
// immediately, and units bound to still-queued pilots wait inside those
// pilots' agents — their machines' queue waits then show up in the
// campaign timeline (and on the per-pilot utilization rows), not as a
// gate before it.
func (rs *ResourceSet) waitActive() error {
	if len(rs.pilots) == 0 {
		return fmt.Errorf("core: resource set not allocated")
	}
	v := rs.cfg.Clock
	t0 := v.Now()
	var queueWait time.Duration
	if rs.EagerSubmit {
		rs.mu.Lock()
		winner, ok := rs.firstActiveLocked()
		for ; !ok; winner, ok = rs.firstActiveLocked() {
			if rs.settleEv == nil {
				rs.settleEv = vclock.NewEvent(v, "resource set first activation")
			}
			ev := rs.settleEv
			rs.mu.Unlock()
			ev.Wait()
			rs.mu.Lock()
		}
		rs.mu.Unlock()
		if winner == nil {
			return fmt.Errorf("core: every pilot failed before activation")
		}
		queueWait = winner.QueueWait()
	} else {
		active := 0
		for _, p := range rs.pilots {
			p.WaitActive()
			if p.State() != pilot.PilotActive {
				// An injected fault — a planned kill, or a missed
				// activation deadline — degrades the set to the survivors
				// instead of failing the run; natural deaths keep the
				// seed's hard error.
				if p.FaultCause() != nil {
					continue
				}
				return fmt.Errorf("core: pilot failed before activation (%v)", p.State())
			}
			active++
			queueWait = max(queueWait, p.QueueWait())
		}
		if active == 0 {
			return fmt.Errorf("core: every pilot failed before activation")
		}
	}
	rs.mu.Lock()
	rs.queueWait = queueWait
	rs.agentStartup = max(v.Now()-t0-queueWait, 0)
	rs.mu.Unlock()
	return nil
}

// AddPilot grows an allocated set mid-campaign: the spec is validated
// and submitted like an Allocate-time pilot (batch queue, agent boot,
// recovery and deadline arming included), joins late binding
// immediately — units bound to it before activation wait in its agent —
// and appears on campaign utilization rows with a zero baseline, so its
// row covers only the work it actually absorbed. Must be called from a
// registered clock process; the submission's control time is charged to
// the caller, not the core overhead.
func (rs *ResourceSet) AddPilot(spec PilotSpec) (*pilot.ComputePilot, error) {
	if err := rs.needAllocated("AddPilot"); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return rs.submitPilot(spec)
}

// DrainPilot shrinks an allocated set mid-campaign: the pilot is
// withdrawn from late binding, its pending backlog is re-dispatched
// onto the remaining pilots, its running units finish normally, and the
// allocation is then released. The drained pilot stays in Pilots() —
// its utilization row covers the partial lifetime it served. Units the
// remaining pilots cannot hold settle through the executor's retry
// budget (partial PatternError); draining the last pilot strands
// nothing but fails everything still pending. Must be called from a
// registered clock process; blocks until the pilot is released.
func (rs *ResourceSet) DrainPilot(p *pilot.ComputePilot) error {
	rs.mu.Lock()
	member := slices.Contains(rs.pilots, p)
	rs.mu.Unlock()
	if !member {
		return fmt.Errorf("core: DrainPilot of a pilot not in the set")
	}
	rs.um.RemovePilot(p) // no new work arrives past this point
	if backlog := p.DrainPending(); len(backlog) > 0 {
		rs.redispatch(backlog)
	}
	p.Quiesced().Wait() // running units finish normally
	p.Cancel()
	p.WaitFinal()
	return nil
}

// Run executes one pattern on the allocated set and returns its report.
// Multiple patterns may run sequentially on one set.
func (rs *ResourceSet) Run(p Pattern) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil pattern")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := rs.needAllocated("Run"); err != nil {
		return nil, err
	}
	if err := rs.waitActive(); err != nil {
		return nil, err
	}

	ex := newExecutor(rs, p)
	v := rs.cfg.Clock
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evRunStart)
	t0 := v.Now()
	err := ex.run()
	ttc := v.Now() - t0
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evRunStop)

	rep := ex.report()
	rep.TTC = ttc
	rs.mu.Lock()
	rep.CoreOverhead = rs.allocCtl + rs.deallocCtl
	rep.QueueWait = rs.queueWait
	rep.AgentStartup = rs.agentStartup
	rs.mu.Unlock()
	return rep, err
}

// needAllocated fails what (an operation's name) on an unallocated set.
func (rs *ResourceSet) needAllocated(what string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.allocated {
		return fmt.Errorf("core: %s before Allocate", what)
	}
	return nil
}

// Deallocate cancels every pilot and releases the session. Its control
// time joins the core overhead of subsequently produced reports.
func (rs *ResourceSet) Deallocate() error {
	if err := rs.needAllocated("Deallocate"); err != nil {
		return err
	}
	v := rs.cfg.Clock
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evDeallocStart)
	t0 := v.Now()
	for _, p := range rs.pilots {
		p.Cancel()
	}
	for _, p := range rs.pilots {
		p.WaitFinal()
	}
	rs.stopGuards()
	rs.sess.Prof.RecordID(rs.coreEnt, rs.evDeallocStop)
	rs.mu.Lock()
	rs.deallocCtl = v.Now() - t0
	rs.mu.Unlock()
	return nil
}

// Execute allocates, runs the pattern, and deallocates, returning a
// report whose core overhead includes both control phases.
func (rs *ResourceSet) Execute(p Pattern) (*Report, error) {
	if err := rs.Allocate(); err != nil {
		return nil, err
	}
	rep, runErr := rs.Run(p)
	if err := rs.Deallocate(); err != nil && runErr == nil {
		runErr = err
	}
	if rep != nil {
		rep.CoreOverhead = rs.ControlOverhead()
	}
	return rep, runErr
}
