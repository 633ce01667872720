// Package saga provides a standardised job-submission API in the spirit of
// SAGA and the Job Submission Description Language (JSDL), which the paper
// adopts for portability across HPC machines (Section III-C1). A
// JobDescription is adaptor-agnostic; Services translate it for a concrete
// backend — here the simulated batch system of an HPC machine.
package saga

import (
	"fmt"
	"time"

	"entk/internal/batch"
	"entk/internal/cluster"
	"entk/internal/vclock"
)

// JobDescription mirrors the JSDL attributes the toolkit needs.
type JobDescription struct {
	// Executable is the command to launch (informational in simulation).
	Executable string
	// Arguments are the command arguments.
	Arguments []string
	// TotalCPUCount is the number of cores the job needs.
	TotalCPUCount int
	// WallTimeLimit is the requested walltime.
	WallTimeLimit time.Duration
	// Queue is the batch queue to submit to.
	Queue string
	// Project is the allocation to charge.
	Project string
	// WorkingDirectory is the job's working directory (informational).
	WorkingDirectory string
}

// Validate checks the description for obvious errors.
func (jd *JobDescription) Validate() error {
	switch {
	case jd.Executable == "":
		return fmt.Errorf("saga: job description has no executable")
	case jd.TotalCPUCount <= 0:
		return fmt.Errorf("saga: job %q requests %d cpus", jd.Executable, jd.TotalCPUCount)
	case jd.WallTimeLimit <= 0:
		return fmt.Errorf("saga: job %q has non-positive walltime", jd.Executable)
	}
	return nil
}

// State is a SAGA job state.
type State int

const (
	// New: created, not yet submitted.
	New State = iota
	// Pending: submitted, waiting in the queue.
	Pending
	// Running: executing on the resource.
	Running
	// Done: finished successfully.
	Done
	// Canceled: cancelled by the user.
	Canceled
	// Failed: terminated abnormally (e.g. walltime exceeded).
	Failed
)

func (s State) String() string {
	switch s {
	case New:
		return "NEW"
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Done:
		return "DONE"
	case Canceled:
		return "CANCELED"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Final reports whether s is terminal.
func (s State) Final() bool { return s == Done || s == Canceled || s == Failed }

// Job is a submitted job, independent of backend.
type Job interface {
	// ID returns a backend-scoped identifier.
	ID() string
	// State returns the current state.
	State() State
	// WaitRunning blocks until the job leaves Pending (it may then be
	// Running or already final).
	WaitRunning()
	// WaitFinal blocks until the job is terminal and returns that state.
	WaitFinal() State
	// Cancel requests cancellation.
	Cancel()
	// Kill terminates the job abnormally on the resource side, as a
	// walltime kill or node failure would: the job ends Failed, and —
	// unlike Cancel — no client network latency is charged, so the death
	// lands at exactly the caller's instant. Fault injection uses it.
	Kill()
	// SignalDone marks the payload complete; the simulation stand-in for
	// the job script exiting with status 0.
	SignalDone()
}

// Service creates jobs on one backend, like saga.job.Service.
type Service interface {
	// URL identifies the service endpoint, e.g. "slurmsim://xsede.comet".
	URL() string
	// Submit validates jd and submits it.
	Submit(jd JobDescription) (Job, error)
}

// ---------------------------------------------------------------------------
// Batch adaptor: jobs run on a simulated HPC batch system.

// BatchService adapts a batch.System to the Service interface. Every
// control operation pays the machine's network latency, which is where the
// constant component of the toolkit overhead comes from.
type BatchService struct {
	v   vclock.Clock
	sys *batch.System
}

// NewBatchService returns a Service submitting to sys.
func NewBatchService(v vclock.Clock, sys *batch.System) *BatchService {
	return &BatchService{v: v, sys: sys}
}

// URL identifies the simulated endpoint.
func (s *BatchService) URL() string { return "slurmsim://" + s.sys.Machine().Name }

// Submit validates and submits the description to the batch system after a
// network round trip.
func (s *BatchService) Submit(jd JobDescription) (Job, error) {
	if err := jd.Validate(); err != nil {
		return nil, err
	}
	s.v.Charge(2 * s.sys.Machine().NetLatency) // request + ack
	bj, err := s.sys.Submit(batch.Request{
		Name:     jd.Executable,
		Cores:    jd.TotalCPUCount,
		Walltime: jd.WallTimeLimit,
		Queue:    jd.Queue,
		Project:  jd.Project,
	})
	if err != nil {
		return nil, err
	}
	return &batchJob{v: s.v, machine: s.sys.Machine(), job: bj}, nil
}

type batchJob struct {
	v       vclock.Clock
	machine *cluster.Machine
	job     *batch.Job
}

func (j *batchJob) ID() string { return fmt.Sprintf("[%s]-[%d]", j.machine.Name, j.job.ID) }

func (j *batchJob) State() State {
	switch j.job.State() {
	case batch.Pending:
		return Pending
	case batch.Running:
		return Running
	case batch.Completed:
		return Done
	case batch.Cancelled:
		return Canceled
	case batch.TimedOut:
		return Failed
	default:
		return New
	}
}

func (j *batchJob) WaitRunning() { j.job.WaitStart() }

func (j *batchJob) WaitFinal() State {
	j.job.WaitEnd()
	return j.State()
}

func (j *batchJob) Cancel() {
	j.v.Charge(j.machine.NetLatency)
	j.job.Cancel()
}

func (j *batchJob) Kill() { j.job.Expire() }

func (j *batchJob) SignalDone() { j.job.Finish() }
