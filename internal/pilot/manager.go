package pilot

import (
	"fmt"
	"sync"

	"entk/internal/profile"
)

// UnitManager accepts unit descriptions, binds each to a pilot — per the
// installed placement policy, else round-robin — and forwards it to that
// pilot's agent (mirroring rp.UnitManager). It has one intake: the
// WaveBatcher (batcher.go) creates the units of every wave arriving at
// one instant together, then hands each wave back to Dispatch or
// DispatchStreamed. Waves from any number of concurrent callers (the
// AppManager runs one submitting process per live pipeline) interleave
// safely: per-wave state is call-local, the pilot table and round-robin
// cursor are locked, and the agents accept units from many submitters
// at once. Each creation round brackets itself on the "umgr" entity so
// interleaving is visible in the trace.
type UnitManager struct {
	sess *Session
	ent  profile.EntityID // "umgr": wave brackets record here

	mu     sync.Mutex
	pilots []*ComputePilot
	rr     int             // round-robin cursor (no placement policy)
	place  PlacementPolicy // nil = round-robin over the pilots
	waves  int             // creation rounds bracketed (beginWave calls)
}

// NewUnitManager returns a unit manager bound to the session.
func NewUnitManager(s *Session) *UnitManager {
	return &UnitManager{sess: s, ent: s.Prof.Intern("umgr")}
}

// Waves reports how many submission waves the manager has accepted.
func (um *UnitManager) Waves() int {
	um.mu.Lock()
	defer um.mu.Unlock()
	return um.waves
}

// beginWave/endWave bracket one bulk submission on the trace.
func (um *UnitManager) beginWave() {
	um.mu.Lock()
	um.waves++
	um.mu.Unlock()
	um.sess.Prof.RecordID(um.ent, um.sess.vocab.evWaveStart)
}

func (um *UnitManager) endWave() {
	um.sess.Prof.RecordID(um.ent, um.sess.vocab.evWaveStop)
}

// SetPlacement installs a placement policy. Multi-pilot resource sets
// install one at allocation; with none installed the manager deals units
// to its pilots round-robin.
func (um *UnitManager) SetPlacement(p PlacementPolicy) {
	um.mu.Lock()
	um.place = p
	um.mu.Unlock()
}

// AddPilot makes a pilot available for unit scheduling.
func (um *UnitManager) AddPilot(p *ComputePilot) {
	um.mu.Lock()
	um.pilots = append(um.pilots, p)
	um.mu.Unlock()
}

// RemovePilot withdraws a pilot from scheduling (already-bound units are
// unaffected).
func (um *UnitManager) RemovePilot(p *ComputePilot) {
	um.mu.Lock()
	for i, q := range um.pilots {
		if q == p {
			um.pilots = append(um.pilots[:i], um.pilots[i+1:]...)
			break
		}
	}
	um.mu.Unlock()
}

// pick selects a pilot for the next unit: the placement policy when one
// is installed (late binding over a multi-pilot set), else round-robin.
func (um *UnitManager) pick(d *UnitDescription) (*ComputePilot, error) {
	um.mu.Lock()
	defer um.mu.Unlock()
	if len(um.pilots) == 0 {
		return nil, fmt.Errorf("pilot: unit manager has no pilots")
	}
	if um.place != nil {
		p := um.place.Place(d, um.pilots)
		if p == nil {
			return nil, fmt.Errorf("pilot: no pilot in the set can run unit %q (%d cores, mpi=%v, tags=%v)",
				d.Name, d.Cores, d.MPI, d.Tags)
		}
		return p, nil
	}
	p := um.pilots[um.rr%len(um.pilots)]
	um.rr++
	return p, nil
}

// validate checks a whole wave before any of it is created, so a
// malformed wave creates no units and brackets no wave.
func validate(descs []UnitDescription) error {
	for i := range descs {
		if err := descs[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// create constructs the unit for an already-validated description and
// records its NEW event, charging no virtual time. It is the one place
// units come from: the wave batcher creates each round's waves up
// front, before any of their client-side cost elapses.
func (um *UnitManager) create(d UnitDescription) *ComputeUnit {
	u := newUnit(um.sess, d)
	um.sess.Prof.RecordID(u.entityID, um.sess.vocab.evNew)
	return u
}

// createAll is create over a wave, in description order.
func (um *UnitManager) createAll(descs []UnitDescription) []*ComputeUnit {
	units := make([]*ComputeUnit, len(descs))
	for i := range descs {
		units[i] = um.create(descs[i])
	}
	return units
}

// bind late-binds one created unit to a pilot at the current instant:
// SCHEDULING, the pick, and the umgr_bound record. A unit no pilot can
// take is failed here and nil returned.
func (um *UnitManager) bind(u *ComputeUnit) *ComputePilot {
	u.setState(UnitScheduling)
	p, err := um.pick(&u.Desc)
	if err != nil {
		u.finish(UnitFailed, err)
		return nil
	}
	u.mu.Lock()
	u.pilot = p
	u.mu.Unlock()
	um.sess.Prof.RecordID(u.entityID, um.sess.vocab.evUmgrBound)
	return p
}

// dispatchOne binds one unit and hands it to its pilot's agent — the
// per-unit dispatch step of DispatchStreamed.
func (um *UnitManager) dispatchOne(u *ComputeUnit) {
	if p := um.bind(u); p != nil {
		p.agent.submit(u)
	}
}

// DispatchStreamed late-binds already-created units one at a time, each
// after its own client-side cost has elapsed: the wave batcher's
// streamed dispatch, once the wave's units were created in a shared
// round. Unit i is picked and submitted at arrival + (i+1) ×
// UMSubmitPerUnit, the instant of the i-th of N serialized single-unit
// submissions. Must be called from a registered vclock process.
func (um *UnitManager) DispatchStreamed(units []*ComputeUnit) {
	perUnit := um.sess.Cfg.UMSubmitPerUnit
	for _, u := range units {
		um.sess.V.Charge(perUnit)
		um.dispatchOne(u)
	}
}

// dispatchChunkMin bounds how small Dispatch's per-pilot runs get when
// a pilot is saturated: chunks of at least this many units keep the
// agent lock traffic well below per-unit submission while load-based
// tie-breaking still sees fresh state every chunk.
const dispatchChunkMin = 64

// Dispatch late-binds created units to pilots and hands them to the
// agents: the wave batcher's bulk dispatch, called once the wave's
// client-side cost has elapsed. Consecutive units bound to the same
// pilot are forwarded as bulk agent submissions (one queue insertion
// and one scheduling-pass request per run), so a single-pilot wave
// reaches its agent in a handful of bulk submits. A run is flushed when
// the pick switches pilots AND when it reaches the free-core count
// sampled at the run's start: the agent absorbs the run (placing what
// fits) before the next pick, so free-core- and load-based policies
// observe state that includes the units already dispatched — without
// the cap, a policy like PlaceLeastLoaded would see frozen counters,
// never switch pilots, and pour an entire wave onto one machine. Must
// be called from a registered vclock process.
func (um *UnitManager) Dispatch(units []*ComputeUnit) {
	var runPilot *ComputePilot
	var run []*ComputeUnit
	runCap := 0
	flush := func() {
		if runPilot != nil && len(run) > 0 {
			runPilot.agent.submitBatch(run)
			run = run[:0]
		}
	}
	// A run is capped at the pilot's current free cores; on a saturated
	// pilot (nothing placeable, runs only grow backlog) the fixed chunk
	// floor applies instead.
	sampleCap := func() int {
		if c := runPilot.FreeCores(); c > 0 {
			return c
		}
		return dispatchChunkMin
	}
	for _, u := range units {
		p := um.bind(u)
		if p == nil {
			continue
		}
		if p != runPilot {
			flush()
			runPilot = p
			runCap = sampleCap()
		}
		run = append(run, u)
		if len(run) >= runCap {
			flush()
			runCap = sampleCap()
		}
	}
	flush()
}

// WaitAll blocks until every unit is terminal and returns their final
// states in order.
func (um *UnitManager) WaitAll(units []*ComputeUnit) []UnitState {
	out := make([]UnitState, len(units))
	for i, u := range units {
		out[i] = u.WaitFinal()
	}
	return out
}
