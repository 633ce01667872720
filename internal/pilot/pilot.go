package pilot

import (
	"fmt"
	"sync"
	"time"

	"entk/internal/cluster"
	"entk/internal/profile"
	"entk/internal/saga"
	"entk/internal/vclock"
)

// PilotState is a compute pilot's lifecycle state.
type PilotState int

const (
	// PilotPending: placeholder job submitted, waiting in the batch queue.
	PilotPending PilotState = iota
	// PilotActive: allocation granted, agent booted, accepting units.
	PilotActive
	// PilotDone: completed (deallocated by the application).
	PilotDone
	// PilotCanceled: cancelled by the application.
	PilotCanceled
	// PilotFailed: terminated abnormally (typically walltime).
	PilotFailed
)

func (s PilotState) String() string {
	switch s {
	case PilotPending:
		return "PENDING"
	case PilotActive:
		return "ACTIVE"
	case PilotDone:
		return "DONE"
	case PilotCanceled:
		return "CANCELED"
	case PilotFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Final reports whether s is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotCanceled || s == PilotFailed
}

// pilotStateEvents precomputes the profiler event name per state.
var pilotStateEvents = [...]string{
	PilotPending:  "state_PENDING",
	PilotActive:   "state_ACTIVE",
	PilotDone:     "state_DONE",
	PilotCanceled: "state_CANCELED",
	PilotFailed:   "state_FAILED",
}

// stateEvent returns the profiler event name for a transition into s.
func (s PilotState) stateEvent() string {
	if int(s) < len(pilotStateEvents) {
		return pilotStateEvents[s]
	}
	return "state_" + s.String()
}

// PilotDescription requests a placeholder allocation on one machine.
type PilotDescription struct {
	// Resource is the machine label, e.g. "xsede.comet".
	Resource string
	// Cores is the number of cores the pilot holds for unit scheduling.
	Cores int
	// Walltime bounds the allocation's lifetime.
	Walltime time.Duration
	// Queue and Project are passed through to the batch system.
	Queue   string
	Project string
	// Tags label the pilot for tag-affinity placement in multi-pilot
	// sets (e.g. "mpi", "gpu", "bigmem"). Purely advisory: only
	// placement policies read them.
	Tags []string
}

// Validate rejects malformed descriptions.
func (d *PilotDescription) Validate() error {
	switch {
	case d.Resource == "":
		return fmt.Errorf("pilot: description has no resource")
	case d.Cores <= 0:
		return fmt.Errorf("pilot: description requests %d cores", d.Cores)
	case d.Walltime <= 0:
		return fmt.Errorf("pilot: description has non-positive walltime")
	}
	return nil
}

// ComputePilot is a submitted placeholder job plus its agent.
type ComputePilot struct {
	ID   int
	Desc PilotDescription

	sess     *Session
	backend  *backend
	job      saga.Job
	agent    *agent
	entity   string           // cached profiler entity key
	entityID profile.EntityID // interned once; lifecycle records by id

	mu       sync.Mutex
	state    PilotState
	fault    error // injected-fault cause; nil for natural lifecycles
	activeEv *vclock.Event
	finalEv  *vclock.Event
}

// Kill terminates the pilot abnormally at the current instant — the
// fault-injection path. The placeholder job dies resource-side (no client
// network latency, unlike Cancel), the teardown watcher maps the death to
// FAILED, and with a recovery path installed the agent returns its
// backlog for rebinding instead of failing it. cause is retained for
// FaultCause.
func (p *ComputePilot) Kill(cause error) {
	p.mu.Lock()
	if p.fault == nil {
		p.fault = cause
	}
	p.mu.Unlock()
	p.job.Kill()
}

// FaultCause returns the injected-fault cause recorded by Kill, nil for
// pilots that died (or live) naturally.
func (p *ComputePilot) FaultCause() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fault
}

// CapacityCores reports the pilot's live capacity: the static allocation
// minus nodes lost to injected faults. Placement eligibility and agent
// admission both use it, so a shrunken pilot neither attracts nor wedges
// units it can no longer hold.
func (p *ComputePilot) CapacityCores() int { return p.agent.capacityCores() }

// SetRecovery installs the rebind path: fn receives the units displaced
// when the pilot dies (or a submission lands after its death) instead of
// those units failing with the stop cause. Installing it also turns on
// in-flight tracking, so running units can be stolen at teardown. Install
// before the pilot activates, or placements made earlier escape tracking.
func (p *ComputePilot) SetRecovery(fn func([]*ComputeUnit)) { p.agent.setRecovery(fn) }

// DrainPending withdraws and returns the pilot's live pending backlog
// without stopping it — the ResourceSet.DrainPilot path. Withdraw the
// pilot from unit scheduling first, or new work keeps arriving.
func (p *ComputePilot) DrainPending() []*ComputeUnit { return p.agent.drainPending() }

// Quiesced returns an event that fires once the pilot has no running
// unit. Arm it only after the pending backlog is drained and no more
// work will be dispatched here.
func (p *ComputePilot) Quiesced() *vclock.Event { return p.agent.quiesce() }

// Entity returns the pilot's profiler entity key.
func (p *ComputePilot) Entity() string { return p.entity }

// Machine returns the platform the pilot is allocated on — the data a
// placement policy needs to judge structural fit (node width for
// non-MPI units).
func (p *ComputePilot) Machine() *cluster.Machine { return p.backend.machine }

// Tags returns the pilot's affinity tags.
func (p *ComputePilot) Tags() []string { return p.Desc.Tags }

// FreeCores reports the agent's currently free cores — the late-binding
// signal free-core placement policies route by.
func (p *ComputePilot) FreeCores() int { return p.agent.freeCores() }

// Load reports the agent's backlog (queued plus running units), the
// signal behind least-loaded unit scheduling.
func (p *ComputePilot) Load() int { return p.agent.load() }

// UtilSnapshot is a point-in-time utilization counter of one pilot:
// how many units have executed on it and how many core-seconds of
// execution they consumed. Campaign reports diff two snapshots to
// compute per-pilot utilization over the campaign window.
type UtilSnapshot struct {
	// Units is the number of units that completed execution (successful
	// or not) on the pilot.
	Units int
	// CoreBusy is the cumulative execution time weighted by each unit's
	// core count (core-seconds of the allocation kept busy).
	CoreBusy time.Duration
}

// Sub returns the counter delta s - prev.
func (s UtilSnapshot) Sub(prev UtilSnapshot) UtilSnapshot {
	return UtilSnapshot{Units: s.Units - prev.Units, CoreBusy: s.CoreBusy - prev.CoreBusy}
}

// Util returns the pilot's cumulative utilization counters since
// activation.
func (p *ComputePilot) Util() UtilSnapshot { return p.agent.utilSnapshot() }

// State returns the pilot's current state.
func (p *ComputePilot) State() PilotState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// WaitActive blocks the calling process until the agent accepts units (or
// the pilot fails first; check State on return).
func (p *ComputePilot) WaitActive() { p.activeEv.Wait() }

// WaitFinal blocks until the pilot is terminal and returns that state.
func (p *ComputePilot) WaitFinal() PilotState {
	p.finalEv.Wait()
	return p.State()
}

// Cancel tears the pilot down: the placeholder job is cancelled and every
// queued unit fails. This is how ResourceHandle.Deallocate releases
// resources.
func (p *ComputePilot) Cancel() { p.job.Cancel() }

// QueueWait reports the batch queue wait as seen through the profiler;
// zero until the pilot activates. The query streams the pilot's own event
// column by pre-interned ids — no string matching.
func (p *ComputePilot) QueueWait() time.Duration {
	a, ok1 := p.sess.Prof.FirstID(p.entityID, p.sess.vocab.evSubmit)
	b, ok2 := p.sess.Prof.FirstID(p.entityID, p.sess.vocab.evJobRunning)
	if !ok1 || !ok2 {
		return 0
	}
	return b - a
}

// setState transitions the pilot unless already terminal.
func (p *ComputePilot) setState(st PilotState) {
	p.mu.Lock()
	if p.state.Final() {
		p.mu.Unlock()
		return
	}
	p.state = st
	p.mu.Unlock()
	p.sess.Prof.RecordID(p.entityID, p.sess.pilotStateName(st))
}

// PilotManager submits and tracks pilots (mirroring rp.PilotManager).
type PilotManager struct {
	sess *Session

	mu     sync.Mutex
	pilots []*ComputePilot
}

// NewPilotManager returns a pilot manager bound to the session.
func NewPilotManager(s *Session) *PilotManager {
	return &PilotManager{sess: s}
}

// Submit validates desc, submits the placeholder job through SAGA, and
// arranges for the agent to boot when the allocation starts. It must be
// called from a registered vclock process.
func (pm *PilotManager) Submit(desc PilotDescription) (*ComputePilot, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	be, err := pm.sess.backendFor(desc.Resource)
	if err != nil {
		return nil, err
	}
	if desc.Cores > be.machine.TotalCores() {
		return nil, fmt.Errorf("pilot: %d cores exceed %s capacity (%d)",
			desc.Cores, be.machine.Name, be.machine.TotalCores())
	}

	p := &ComputePilot{
		ID:      pm.sess.pilotID(),
		Desc:    desc,
		sess:    pm.sess,
		backend: be,
		state:   PilotPending,
	}
	p.entity = pilotEntity(p.ID)
	p.entityID = pm.sess.Prof.Intern(p.entity)
	p.activeEv = vclock.NewEvent(pm.sess.V, fmt.Sprintf("pilot %d active", p.ID))
	p.finalEv = vclock.NewEvent(pm.sess.V, fmt.Sprintf("pilot %d final", p.ID))
	p.agent = newAgent(p)

	pm.sess.Prof.RecordID(p.entityID, pm.sess.vocab.evSubmit)
	job, err := be.service.Submit(saga.JobDescription{
		Executable:    "radical-pilot-agent",
		Arguments:     []string{fmt.Sprintf("--pilot=%d", p.ID)},
		TotalCPUCount: desc.Cores,
		WallTimeLimit: desc.Walltime,
		Queue:         desc.Queue,
		Project:       desc.Project,
	})
	if err != nil {
		return nil, err
	}
	p.job = job

	pm.mu.Lock()
	pm.pilots = append(pm.pilots, p)
	pm.mu.Unlock()

	// Activation watcher: batch job starts -> agent bootstraps -> ACTIVE.
	pm.sess.V.Go(func() {
		job.WaitRunning()
		if job.State() != saga.Running {
			return // cancelled while queued; final watcher handles it
		}
		pm.sess.Prof.RecordID(p.entityID, pm.sess.vocab.evJobRunning)
		pm.sess.V.Charge(be.machine.AgentBootTime)
		if job.State() != saga.Running {
			return
		}
		p.setState(PilotActive)
		pm.sess.Prof.RecordID(p.entityID, pm.sess.vocab.evActive)
		p.agent.start()
		p.activeEv.Fire()
	})

	// Teardown watcher: job reaches a final state -> agent stops, queued
	// units fail, waiters release. An injected fault (Kill) forces FAILED
	// whatever the job backend reported; with a recovery path installed
	// the agent's backlog is returned for rebinding instead of failed.
	pm.sess.V.Go(func() {
		st := job.WaitFinal()
		if p.FaultCause() != nil {
			st = saga.Failed
		}
		switch st {
		case saga.Done:
			p.setState(PilotDone)
		case saga.Canceled:
			p.setState(PilotCanceled)
		default:
			p.setState(PilotFailed)
		}
		pm.sess.Prof.RecordID(p.entityID, pm.sess.vocab.evFinal)
		cause := fmt.Errorf("pilot %d terminated (%v)", p.ID, p.State())
		if fc := p.FaultCause(); fc != nil {
			cause = fmt.Errorf("pilot %d terminated (%v): %w", p.ID, p.State(), fc)
		}
		if rec := p.agent.recovery(); rec != nil {
			if returned := p.agent.stopWithReturn(cause); len(returned) > 0 {
				rec(returned)
			}
		} else {
			p.agent.stop(cause)
		}
		p.activeEv.Fire() // release WaitActive callers on early death
		p.finalEv.Fire()
	})

	return p, nil
}
