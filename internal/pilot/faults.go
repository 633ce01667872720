package pilot

// Deterministic fault injection. A FaultPlan schedules resource-side
// failures — whole-pilot death, walltime expiry, partial node loss — at
// exact virtual instants. Because the virtual clock orders every event
// totally, the same plan against the same campaign produces bit-identical
// traces run after run: fault tolerance becomes a property the test suite
// can pin, not a behaviour observed under luck.
//
// One subtlety matters for reproducibility: when a fault instant
// coincides exactly with a model-derived event (a unit completion, a
// stage barrier), the wake order of the two processes at that instant is
// engine-scheduling-dependent. Plans should therefore pick instants that
// no cost model produces — in practice, offset the time by a nanosecond
// (the tests and benchmarks use odd +1ns offsets throughout).

import (
	"fmt"
	"time"

	"entk/internal/vclock"
)

// FaultKind selects what a scheduled fault does to its pilot.
type FaultKind int

const (
	// FaultKillPilot terminates the pilot outright at the instant: the
	// placeholder job dies resource-side (queued pilots are discarded,
	// running ones end abnormally) and the agent's backlog is displaced.
	FaultKillPilot FaultKind = iota
	// FaultExpireWalltime is FaultKillPilot with a walltime-expiry cause:
	// the modelled "allocation ran out" death, distinguishable in errors.
	FaultExpireWalltime
	// FaultNodeLoss removes Nodes nodes from a running pilot's allocation
	// without killing it: the pilot keeps scheduling on the survivors,
	// units touching lost nodes are displaced for rebinding.
	FaultNodeLoss
)

func (k FaultKind) String() string {
	switch k {
	case FaultKillPilot:
		return "kill-pilot"
	case FaultExpireWalltime:
		return "expire-walltime"
	case FaultNodeLoss:
		return "node-loss"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled failure.
type Fault struct {
	// At is the virtual instant the fault fires, measured from Arm time
	// (campaign start when armed through the ResourceSet).
	At time.Duration
	// Pilot indexes the pilot (in set order) the fault targets.
	Pilot int
	// Kind selects the failure mode.
	Kind FaultKind
	// Nodes is the node count FaultNodeLoss removes; ignored otherwise.
	Nodes int
}

// FaultPlan is a deterministic schedule of failures, armed once against a
// pilot set. The zero value injects nothing.
type FaultPlan struct {
	Faults []Fault
}

// Validate rejects malformed plans against a set of n pilots.
func (fp *FaultPlan) Validate(n int) error {
	for i, f := range fp.Faults {
		switch {
		case f.At < 0:
			return fmt.Errorf("pilot: fault %d fires at negative instant %v", i, f.At)
		case f.Pilot < 0 || f.Pilot >= n:
			return fmt.Errorf("pilot: fault %d targets pilot %d of %d", i, f.Pilot, n)
		case f.Kind == FaultNodeLoss && f.Nodes <= 0:
			return fmt.Errorf("pilot: fault %d loses %d nodes", i, f.Nodes)
		case f.Kind != FaultKillPilot && f.Kind != FaultExpireWalltime && f.Kind != FaultNodeLoss:
			return fmt.Errorf("pilot: fault %d has unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Arm schedules every fault of the plan on the virtual clock against
// pilots (set order; Fault.Pilot indexes it). displaced receives the
// units a node loss displaces — pilot deaths route through the agent's
// installed recovery path instead, so Arm leaves them to the teardown
// watcher. A nil displaced fails displaced units with the fault cause,
// mirroring an agent without recovery. Must be called from a registered
// vclock process before the fault instants pass. The returned timers,
// one per fault, let the owner disarm what has not fired by teardown.
func (fp *FaultPlan) Arm(v vclock.Clock, pilots []*ComputePilot, displaced func([]*ComputeUnit)) ([]*vclock.Timer, error) {
	if err := fp.Validate(len(pilots)); err != nil {
		return nil, err
	}
	armed := make([]*vclock.Timer, 0, len(fp.Faults))
	for _, f := range fp.Faults {
		f := f
		p := pilots[f.Pilot]
		t := v.After(f.At, func() {
			switch f.Kind {
			case FaultKillPilot:
				p.Kill(fmt.Errorf("fault: pilot %d killed at %v", p.ID, v.Now()))
			case FaultExpireWalltime:
				p.Kill(fmt.Errorf("fault: pilot %d walltime expired at %v", p.ID, v.Now()))
			case FaultNodeLoss:
				units := p.agent.loseNodes(f.Nodes)
				if len(units) == 0 {
					return
				}
				if displaced != nil {
					displaced(units)
					return
				}
				cause := fmt.Errorf("fault: pilot %d lost %d nodes at %v", p.ID, f.Nodes, v.Now())
				for _, u := range units {
					u.finish(UnitFailed, cause)
				}
			}
		})
		armed = append(armed, t)
	}
	return armed, nil
}
