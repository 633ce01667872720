package pilot

import (
	"sync"
	"time"

	"entk/internal/vclock"
)

// WaveBatcher coalesces bulk submission waves from many concurrent
// submitters — the AppManager runs one submitting process per live
// pipeline — into shared unit-manager rounds: all waves enqueued at one
// virtual instant are created together under a single umgr wave
// bracket, and each wave's units reach its pilot as one bulk agent
// submission. A campaign of a thousand tiny pipelines therefore costs a
// handful of umgr waves per scheduling round instead of a thousand.
//
// The batching is timeline-neutral by construction, which is what lets
// every executor route through it unconditionally (the single-pilot
// parity suites gate this): unit creation takes zero virtual time, and
// each member wave still pays its own client-side submission cost
// (len(descs) × UMSubmitPerUnit) from the instant it arrived before its
// units dispatch — exactly the cost and the dispatch instant of an
// unbatched submission (the reference intake the batcher tests keep in
// manager_ref_test.go). Only the wall-clock shape changes:
// fewer brackets, fewer per-unit lock round trips, one scheduling-pass
// request per pilot per wave.
//
// Coalescing is leaderless and opportunistic: the first submitter of a
// round drains the queue (new arrivals during the drain join it), and
// the engine cannot advance virtual time while the leader is runnable,
// so a round never mixes instants.
type WaveBatcher struct {
	um *UnitManager

	mu      sync.Mutex
	queue   []*batchedWave
	leading bool
}

// batchedWave is one member wave of a round. Its descriptions are
// validated before it joins the queue, so creation cannot fail.
type batchedWave struct {
	descs   []UnitDescription
	units   []*ComputeUnit
	created *vclock.Event
}

// NewWaveBatcher returns a batcher over the unit manager.
func NewWaveBatcher(um *UnitManager) *WaveBatcher {
	return &WaveBatcher{um: um}
}

// UnitManager returns the wrapped manager.
func (b *WaveBatcher) UnitManager() *UnitManager { return b.um }

// Submit submits one bulk wave through the shared batcher: validate,
// create the wave's units (coalesced with every other wave of the same
// round), pay this wave's own client-side submission cost, then
// late-bind and dispatch. It must be called from a registered vclock
// process and returns the units in description order.
func (b *WaveBatcher) Submit(descs []UnitDescription) ([]*ComputeUnit, error) {
	units, err := b.join(descs)
	if err != nil {
		return nil, err
	}
	// Client-side creation/serialization cost for this wave — each
	// member of a round pays its own, concurrently with the others.
	b.um.sess.V.Charge(time.Duration(len(units)) * b.um.sess.Cfg.UMSubmitPerUnit)
	b.um.Dispatch(units)
	return units, nil
}

// SubmitStreamed submits one streamed wave through the shared batcher:
// the wave joins the same creation rounds as bulk waves — all
// waves arriving at one virtual instant are created under one umgr
// bracket — and then dispatches each unit individually as its own
// client-side cost elapses. Every unit still reaches its pilot at
// exactly the instant of an unbatched streamed submission (unit i at
// arrival + (i+1) × UMSubmitPerUnit, late-bound at that instant), so
// the coalescing changes only the wall-clock shape: shared admission
// and creation, fewer umgr brackets. Gated by the streamed-leg
// timeline-neutrality test.
func (b *WaveBatcher) SubmitStreamed(descs []UnitDescription) ([]*ComputeUnit, error) {
	units, err := b.join(descs)
	if err != nil {
		return nil, err
	}
	b.um.DispatchStreamed(units)
	return units, nil
}

// join validates descs and runs the round machinery: the wave's units
// are created together with every other wave enqueued at this instant,
// under one umgr bracket per drain round. It returns the created units
// in description order, with no virtual time elapsed.
func (b *WaveBatcher) join(descs []UnitDescription) ([]*ComputeUnit, error) {
	// Validate before joining a round, so a malformed wave creates no
	// units, brackets no wave, and poisons no round; the leader then
	// creates units without a second validation pass.
	if err := validate(descs); err != nil {
		return nil, err
	}
	v := b.um.sess.V
	w := &batchedWave{descs: descs, created: vclock.NewEvent(v, "batched wave created")}
	b.mu.Lock()
	b.queue = append(b.queue, w)
	if b.leading {
		// A leader is draining this instant's round: park until it has
		// created this wave's units.
		b.mu.Unlock()
		w.created.Wait()
	} else {
		// Become the round leader: drain the queue until empty,
		// creating every member's units under one umgr bracket per
		// drain iteration. Creation takes no virtual time and the
		// engine cannot advance the clock while this process is
		// runnable, so the whole drain happens at one virtual instant.
		b.leading = true
		for len(b.queue) > 0 {
			round := b.queue
			b.queue = nil
			b.mu.Unlock()
			b.um.beginWave()
			for _, m := range round {
				m.units = b.um.createAll(m.descs)
				m.created.Fire()
			}
			b.um.endWave()
			b.mu.Lock()
		}
		b.leading = false
		b.mu.Unlock()
	}
	return w.units, nil
}
