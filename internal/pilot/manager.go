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
// one instant together, then dispatches each wave from a clock timer,
// through Dispatch or, a unit at a time, dispatchOne. Waves from any
// number of submitters interleave safely: per-wave state is call-local,
// the pilot table and round-robin cursor are locked, and the agents
// accept units from many submitters at once. Each creation round
// brackets itself on the "umgr" entity so interleaving is visible in
// the trace.
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

// pick selects a pilot for unit u: the placement policy when one is
// installed (late binding over a multi-pilot set), else round-robin.
func (um *UnitManager) pick(u *ComputeUnit) (*ComputePilot, error) {
	um.mu.Lock()
	defer um.mu.Unlock()
	if len(um.pilots) == 0 {
		return nil, fmt.Errorf("pilot: unit manager has no pilots")
	}
	if um.place != nil {
		d := u.desc
		p := um.place.Place(d, um.pilots)
		if p == nil {
			return nil, fmt.Errorf("pilot: no pilot in the set can run unit %q (%d cores, mpi=%v, tags=%v)",
				u.name, d.Cores, d.MPI, d.Tags)
		}
		return p, nil
	}
	p := um.pilots[um.rr%len(um.pilots)]
	um.rr++
	return p, nil
}

// validate checks a whole wave before any of it is created, so a
// malformed wave creates no units and brackets no wave. A description
// shared by consecutive units is checked once.
func validate(wave []WaveUnit) error {
	for i := range wave {
		if i > 0 && wave[i].Desc == wave[i-1].Desc {
			continue
		}
		if err := wave[i].Desc.validate(wave[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// create constructs the unit for an already-validated wave entry and
// records its NEW event, charging no virtual time. It is the one place
// units come from: the wave batcher creates each round's waves up
// front, before any of their client-side cost elapses.
func (um *UnitManager) create(w WaveUnit, onFinal func(*ComputeUnit)) *ComputeUnit {
	u := newUnit(um.sess, w, onFinal)
	um.sess.Prof.RecordID(u.entityID, um.sess.vocab.evNew)
	return u
}

// createAll is create over a wave, in wave order.
func (um *UnitManager) createAll(wave []WaveUnit, onFinal func(*ComputeUnit)) []*ComputeUnit {
	units := make([]*ComputeUnit, len(wave))
	for i := range wave {
		units[i] = um.create(wave[i], onFinal)
	}
	return units
}

// bind late-binds one created unit to a pilot at the current instant:
// SCHEDULING, the pick, and the umgr_bound record. A unit no pilot can
// take is failed here and nil returned.
func (um *UnitManager) bind(u *ComputeUnit) *ComputePilot {
	u.setState(UnitScheduling)
	p, err := um.pick(u)
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
// per-unit dispatch step of a streamed wave.
func (um *UnitManager) dispatchOne(u *ComputeUnit) {
	if p := um.bind(u); p != nil {
		p.agent.submit(u)
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
// never switch pilots, and pour an entire wave onto one machine. It
// never blocks on the clock, so it runs in timer callbacks.
func (um *UnitManager) Dispatch(units []*ComputeUnit) {
	// A run is units[start:end] of one pilot, handed over in place.
	var runPilot *ComputePilot
	start, runCap := 0, 0
	flush := func(end int) {
		if runPilot != nil && end > start {
			runPilot.agent.submitBatch(units[start:end])
		}
		start = end
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
	for i, u := range units {
		p := um.bind(u)
		if p == nil {
			flush(i)
			start = i + 1
			continue
		}
		if p != runPilot {
			flush(i)
			runPilot = p
			runCap = sampleCap()
		}
		if i+1-start >= runCap {
			flush(i + 1)
			runCap = sampleCap()
		}
	}
	flush(len(units))
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
