package pilot

import (
	"sync"
)

// Placement policies for multi-pilot sets. The unit manager binds each
// unit to a pilot at dispatch time — after the wave's client-side
// submission cost has elapsed — so the decision is late-bound: it sees
// the pilots' *current* free cores and backlogs, not the state at
// description time. This is the decoupling the paper delegates to the
// pilot abstraction (Section III-C2): the workload is described once,
// and where each task runs is decided by whichever pilot has capacity
// when the task becomes ready.
//
// A multi-pilot set installs a PlacementPolicy on its unit manager
// (UnitManager.SetPlacement); with none installed the manager deals
// units to its pilots round-robin with no eligibility check — the
// single-pilot path.

// PlacementPolicy selects which pilot of a set a unit binds to.
// Implementations must be safe for concurrent use; Place is called
// under the unit manager's lock, so it must not call back into the
// unit manager.
type PlacementPolicy interface {
	// Name identifies the policy in reports and benchmarks.
	Name() string
	// Place selects a pilot for d from pilots (in set order), or nil
	// when no pilot can run the unit. Pilots that cannot structurally
	// fit the unit (core count, node width for non-MPI units) must not
	// be returned.
	Place(d *UnitDescription, pilots []*ComputePilot) *ComputePilot
}

// eligible reports whether the pilot can run the unit: it is still
// alive (a walltime-expired or cancelled pilot's agent fails everything
// submitted to it, so routing there would fail units another pilot
// could run), has enough total cores, and — for non-MPI units — a node
// wide enough to hold it. The shape checks mirror the agent's static
// admission, so an eligible placement is never rejected at the agent.
func eligible(d *UnitDescription, p *ComputePilot) bool {
	if p.State().Final() {
		return false
	}
	// Live capacity, not the static allocation: a pilot shrunk by node
	// loss must not attract units only its lost nodes could have held.
	if d.Cores > p.CapacityCores() {
		return false
	}
	if !d.MPI && d.Cores > p.Machine().CoresPerNode {
		return false
	}
	return true
}

// hasAllTags reports whether the pilot carries every tag of the unit.
func hasAllTags(d *UnitDescription, p *ComputePilot) bool {
	for _, want := range d.Tags {
		found := false
		for _, have := range p.Desc.Tags {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// rrPlacement deals units to eligible pilots in turn. The cursor
// advances monotonically (reduced modulo the slice length only at scan
// time), so calls over different pilot subsets — tag-affinity routes
// matched subsets and the full set through one instance — cannot reset
// the rotation to the first pilot.
type rrPlacement struct {
	mu     sync.Mutex
	cursor uint64
}

// PlaceRoundRobin returns a policy that deals each unit to the next
// eligible pilot in set order — the default for multi-pilot sets.
func PlaceRoundRobin() PlacementPolicy { return &rrPlacement{} }

func (r *rrPlacement) Name() string { return "round-robin" }

func (r *rrPlacement) Place(d *UnitDescription, pilots []*ComputePilot) *ComputePilot {
	if len(pilots) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.cursor
	for i := 0; i < len(pilots); i++ {
		p := pilots[(start+uint64(i))%uint64(len(pilots))]
		if eligible(d, p) {
			r.cursor = start + uint64(i) + 1
			return p
		}
	}
	return nil
}

// freeCoresPlacement routes each unit to the least-loaded pilot,
// measured by free cores.
type freeCoresPlacement struct{}

// PlaceLeastLoaded returns a policy that routes each unit to the
// eligible pilot with the most free cores right now (ties broken by the
// smaller queued-plus-running backlog, then set order) — so waves drain
// toward whichever machine has capacity at dispatch time.
func PlaceLeastLoaded() PlacementPolicy { return freeCoresPlacement{} }

func (freeCoresPlacement) Name() string { return "least-loaded" }

func (freeCoresPlacement) Place(d *UnitDescription, pilots []*ComputePilot) *ComputePilot {
	var best *ComputePilot
	bestFree, bestLoad := -1, 0
	for _, p := range pilots {
		if !eligible(d, p) {
			continue
		}
		free, load := p.FreeCores(), p.Load()
		if best == nil || free > bestFree || (free == bestFree && load < bestLoad) {
			best, bestFree, bestLoad = p, free, load
		}
	}
	return best
}

// tagAffinity restricts placement to tag-matching pilots, delegating
// the choice among them to an inner policy.
type tagAffinity struct {
	next PlacementPolicy
}

// PlaceTagAffinity returns a policy that routes tagged units to pilots
// carrying every one of the unit's tags (so e.g. MPI-width-4 tasks land
// on the machine provisioned for them), choosing among the matches with
// next (round-robin when nil). Untagged units — and tagged units no
// pilot matches — fall back to next over all eligible pilots, so a
// mislabelled campaign degrades to late binding instead of failing.
func PlaceTagAffinity(next PlacementPolicy) PlacementPolicy {
	if next == nil {
		next = PlaceRoundRobin()
	}
	return &tagAffinity{next: next}
}

func (t *tagAffinity) Name() string { return "tag-affinity+" + t.next.Name() }

func (t *tagAffinity) Place(d *UnitDescription, pilots []*ComputePilot) *ComputePilot {
	if len(d.Tags) > 0 {
		matched := make([]*ComputePilot, 0, len(pilots))
		for _, p := range pilots {
			if eligible(d, p) && hasAllTags(d, p) {
				matched = append(matched, p)
			}
		}
		if len(matched) > 0 {
			return t.next.Place(d, matched)
		}
	}
	return t.next.Place(d, pilots)
}
