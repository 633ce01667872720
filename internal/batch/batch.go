// Package batch simulates an HPC batch-queue system (SLURM/PBS-like) on a
// virtual clock. Jobs request whole nodes for a bounded walltime; the
// scheduler admits them FIFO or with EASY backfill; running jobs are killed
// when their walltime expires. The pilot layer submits its placeholder
// ("container") jobs here, exactly as RADICAL-Pilot submits to SLURM.
package batch

import (
	"fmt"
	"sync"
	"time"

	"entk/internal/cluster"
	"entk/internal/pad"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// Policy selects the queue scheduling discipline.
type Policy int

const (
	// FIFO admits jobs strictly in arrival order; the queue head blocks
	// everything behind it.
	FIFO Policy = iota
	// EASYBackfill admits the queue head when it fits and lets later jobs
	// jump ahead only if doing so cannot delay the head's earliest
	// possible start (EASY backfilling).
	EASYBackfill
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case EASYBackfill:
		return "easy-backfill"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// State is a batch job's lifecycle state.
type State int

const (
	// Pending: submitted, waiting for resources.
	Pending State = iota
	// Running: nodes allocated, payload executing.
	Running
	// Completed: payload signalled completion before the walltime.
	Completed
	// TimedOut: killed by the walltime limit.
	TimedOut
	// Cancelled: cancelled by the user.
	Cancelled
)

func (s State) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Completed:
		return "COMPLETED"
	case TimedOut:
		return "TIMEOUT"
	case Cancelled:
		return "CANCELLED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Final reports whether s is a terminal state.
func (s State) Final() bool { return s == Completed || s == TimedOut || s == Cancelled }

// Request describes a job submission.
type Request struct {
	// Name labels the job in diagnostics.
	Name string
	// Cores is the requested core count; the allocation is rounded up to
	// whole nodes as on real HPC machines.
	Cores int
	// Walltime is the hard execution time limit.
	Walltime time.Duration
	// Queue is the submission queue name (informational).
	Queue string
	// Project is the allocation charged (informational).
	Project string
}

// Job is a submitted batch job.
type Job struct {
	ID    int
	Req   Request
	Nodes int // whole nodes allocated

	sys      *System
	entityID profile.EntityID // interned "job.NNNN"; zero when unprofiled

	mu         sync.Mutex
	state      State
	eligibleAt time.Duration // virtual time at which the queue model admits it
	submitted  time.Duration
	started    time.Duration
	ended      time.Duration

	startEv  *vclock.Event
	endEv    *vclock.Event
	walltime *vclock.Timer // the walltime kill while Running; stopped at job end
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// WaitStart blocks the calling process until the job leaves Pending. On
// return the job is Running or already final (e.g. cancelled while queued).
func (j *Job) WaitStart() { j.startEv.Wait() }

// WaitEnd blocks the calling process until the job reaches a final state,
// which it returns.
func (j *Job) WaitEnd() State {
	j.endEv.Wait()
	return j.State()
}

// QueueWait returns how long the job waited in the queue; valid once
// started.
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started - j.submitted
}

// Runtime returns how long the job ran; valid once final.
func (j *Job) Runtime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started == 0 && j.state == Cancelled {
		return 0
	}
	return j.ended - j.started
}

// Finish marks the payload complete, releasing the allocation. It is the
// simulation's stand-in for the job script exiting. Calling it when the
// job is not running is a no-op.
func (j *Job) Finish() { j.sys.endJob(j, Completed) }

// Cancel removes the job from the queue or kills it if running.
func (j *Job) Cancel() { j.sys.cancel(j) }

// Expire kills the job as the machine would at walltime expiry: a
// running job is ended TimedOut, a pending one is discarded as timed
// out without ever starting. Unlike Cancel this models a failure on the
// resource side, so callers charge no client network latency. It is the
// hook fault injection uses to expire an allocation at an exact virtual
// instant.
func (j *Job) Expire() { j.sys.expire(j) }

// System is one machine's batch system.
type System struct {
	v       vclock.Clock
	machine *cluster.Machine
	policy  Policy

	// prof, when set, receives job lifecycle events (submit / start /
	// end) recorded with the pre-interned ids below — the queue-wait
	// component of the TTC decomposition, reconstructed from the batch
	// layer itself.
	prof                     *profile.Profiler
	evSubmit, evStart, evEnd profile.NameID

	mu        sync.Mutex
	nextID    int
	freeNodes int
	queue     []*Job                 // pending jobs in arrival order
	running   map[*Job]time.Duration // job -> walltime deadline (virtual)
}

// SetProfiler wires lifecycle recording into p. The fixed event names are
// interned once here; per-job entities are interned at submission.
func (s *System) SetProfiler(p *profile.Profiler) {
	s.prof = p
	s.evSubmit = p.InternName("job_submit")
	s.evStart = p.InternName("job_start")
	s.evEnd = p.InternName("job_end")
}

// NewSystem creates a batch system for machine with the given policy.
func NewSystem(v vclock.Clock, machine *cluster.Machine, policy Policy) (*System, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	return &System{
		v:         v,
		machine:   machine,
		policy:    policy,
		freeNodes: machine.Nodes,
		running:   make(map[*Job]time.Duration),
	}, nil
}

// Machine returns the machine this system schedules.
func (s *System) Machine() *cluster.Machine { return s.machine }

// FreeNodes returns the currently unallocated node count.
func (s *System) FreeNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeNodes
}

// Submit enqueues a job request. The returned job is Pending; it becomes
// Running once the queue-wait model admits it and nodes are free. Submit
// must be called from a registered vclock process.
func (s *System) Submit(req Request) (*Job, error) {
	if req.Cores <= 0 {
		return nil, fmt.Errorf("batch: job %q requests %d cores", req.Name, req.Cores)
	}
	if req.Walltime <= 0 {
		return nil, fmt.Errorf("batch: job %q has non-positive walltime", req.Name)
	}
	nodes := s.machine.NodesFor(req.Cores)
	if nodes > s.machine.Nodes {
		return nil, fmt.Errorf("batch: job %q needs %d nodes, machine %s has %d",
			req.Name, nodes, s.machine.Name, s.machine.Nodes)
	}

	s.mu.Lock()
	s.nextID++
	j := &Job{
		ID:        s.nextID,
		Req:       req,
		Nodes:     nodes,
		sys:       s,
		state:     Pending,
		submitted: s.v.Now(),
		startEv:   vclock.NewEvent(s.v, fmt.Sprintf("batch job %d start", s.nextID)),
		endEv:     vclock.NewEvent(s.v, fmt.Sprintf("batch job %d end", s.nextID)),
	}
	if s.prof != nil {
		// Interned before the job is published: once it is in s.queue a
		// concurrent schedule() may record job_start at the same virtual
		// instant (zero-wait machines), so entityID must already be set.
		j.entityID = s.prof.Intern("job." + pad.Int(j.ID, 4))
	}
	delay := s.machine.QueueWaitBase + time.Duration(nodes)*s.machine.QueueWaitPerNode
	j.eligibleAt = s.v.Now() + delay
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	if s.prof != nil {
		s.prof.RecordID(j.entityID, s.evSubmit)
	}

	// The queue-wait model: the job becomes schedulable only after its
	// modelled delay, so even an empty machine imposes realistic waits.
	// The job is eligible from the instant the delay has been charged —
	// in simulation exactly the eligibleAt computed above; on the wall
	// clock, where Charge does not sleep, now.
	s.v.Go(func() {
		s.v.Charge(delay)
		s.mu.Lock()
		j.eligibleAt = s.v.Now()
		s.mu.Unlock()
		s.schedule()
	})
	return j, nil
}

// schedule admits pending jobs per the policy. Called whenever capacity or
// eligibility changes.
func (s *System) schedule() {
	var started []*Job
	s.mu.Lock()
	now := s.v.Now()
	for len(s.queue) > 0 {
		head := s.queue[0]
		if head.eligibleAt > now {
			// The head keeps its priority even while the queue-wait model
			// still holds it; nothing may overtake it.
			break
		}
		if head.Nodes <= s.freeNodes {
			s.queue = s.queue[1:]
			s.startLocked(head, now)
			started = append(started, head)
			continue
		}
		if s.policy == EASYBackfill {
			if bf := s.backfillCandidate(0, now); bf >= 0 {
				j := s.queue[bf]
				s.queue = append(s.queue[:bf], s.queue[bf+1:]...)
				s.startLocked(j, now)
				started = append(started, j)
				continue
			}
		}
		break
	}
	s.mu.Unlock()

	for _, j := range started {
		if s.prof != nil {
			s.prof.RecordID(j.entityID, s.evStart)
		}
		j.startEv.Fire()
		s.armWalltime(j)
	}
}

// backfillCandidate returns the index of an eligible job after headIdx that
// can start now without delaying the head's earliest possible start (EASY
// rule), or -1. Caller holds mu.
func (s *System) backfillCandidate(headIdx int, now time.Duration) int {
	head := s.queue[headIdx]
	shadow, extra := s.shadowTime(head, now)
	for i := headIdx + 1; i < len(s.queue); i++ {
		j := s.queue[i]
		if j.eligibleAt > now || j.Nodes > s.freeNodes {
			continue
		}
		if now+j.Req.Walltime <= shadow || j.Nodes <= extra {
			return i
		}
	}
	return -1
}

// shadowTime computes when the head job could start given current running
// jobs' walltime deadlines, and how many nodes would still be free at that
// moment beyond the head's need. Caller holds mu.
func (s *System) shadowTime(head *Job, now time.Duration) (shadow time.Duration, extraNodes int) {
	type rel struct {
		at    time.Duration
		nodes int
	}
	var rels []rel
	for j, deadline := range s.running {
		rels = append(rels, rel{deadline, j.Nodes})
	}
	// Insertion sort by release time (running set is small).
	for i := 1; i < len(rels); i++ {
		for k := i; k > 0 && rels[k].at < rels[k-1].at; k-- {
			rels[k], rels[k-1] = rels[k-1], rels[k]
		}
	}
	free := s.freeNodes
	for _, r := range rels {
		free += r.nodes
		if free >= head.Nodes {
			return r.at, free - head.Nodes
		}
	}
	// Head can never start: treat shadow as infinity so nothing backfills
	// on its account (the submit-time capacity check makes this unlikely).
	return 1<<62 - 1, 0
}

// startLocked transitions j to Running. Caller holds mu.
func (s *System) startLocked(j *Job, now time.Duration) {
	s.freeNodes -= j.Nodes
	if s.freeNodes < 0 {
		panic("batch: node over-allocation")
	}
	j.mu.Lock()
	j.state = Running
	j.started = now
	j.mu.Unlock()
	s.running[j] = now + j.Req.Walltime
}

// armWalltime schedules the walltime kill for a running job. The guard
// is stopped when the job ends: on the wall clock an armed timer pins the
// job — and through it the whole session — for the full walltime.
func (s *System) armWalltime(j *Job) {
	t := s.v.After(j.Req.Walltime, func() { s.endJob(j, TimedOut) })
	j.mu.Lock()
	running := j.state == Running
	if running {
		j.walltime = t
	}
	j.mu.Unlock()
	if !running {
		t.Stop() // ended between its start event and here
	}
}

// endJob moves a running job to a final state and frees its nodes.
func (s *System) endJob(j *Job, final State) {
	j.mu.Lock()
	if j.state != Running {
		j.mu.Unlock()
		return
	}
	j.state = final
	j.ended = s.v.Now()
	guard := j.walltime
	j.walltime = nil
	j.mu.Unlock()
	if guard != nil {
		guard.Stop()
	}

	s.mu.Lock()
	delete(s.running, j)
	s.freeNodes += j.Nodes
	s.mu.Unlock()

	if s.prof != nil {
		s.prof.RecordID(j.entityID, s.evEnd)
	}
	j.endEv.Fire()
	s.schedule()
}

// cancel handles Job.Cancel for both queued and running jobs.
func (s *System) cancel(j *Job) {
	j.mu.Lock()
	switch j.state {
	case Pending:
		j.state = Cancelled
		j.ended = s.v.Now()
		j.mu.Unlock()
		s.mu.Lock()
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		j.startEv.Fire() // release WaitStart callers
		j.endEv.Fire()
		return
	case Running:
		j.mu.Unlock()
		s.endJob(j, Cancelled)
		return
	default:
		j.mu.Unlock()
	}
}

// expire handles Job.Expire for both queued and running jobs: the
// machine-side abnormal termination. It mirrors cancel's state walk but
// lands on TimedOut, so the SAGA layer reports the death as Failed.
func (s *System) expire(j *Job) {
	j.mu.Lock()
	switch j.state {
	case Pending:
		j.state = TimedOut
		j.ended = s.v.Now()
		j.mu.Unlock()
		s.mu.Lock()
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if s.prof != nil {
			s.prof.RecordID(j.entityID, s.evEnd)
		}
		j.startEv.Fire() // release WaitStart callers
		j.endEv.Fire()
		return
	case Running:
		j.mu.Unlock()
		s.endJob(j, TimedOut)
		return
	default:
		j.mu.Unlock()
	}
}

// QueueLength returns the number of pending jobs.
func (s *System) QueueLength() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// RunningCount returns the number of running jobs.
func (s *System) RunningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}
