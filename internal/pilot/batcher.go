package pilot

import (
	"cmp"
	"slices"
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
// (len(wave) × UMSubmitPerUnit) from the instant it arrived before its
// units dispatch — exactly the cost and the dispatch instant of an
// unbatched submission (the reference intake the batcher tests keep in
// manager_ref_test.go). Only the wall-clock shape changes:
// fewer brackets, fewer per-unit lock round trips, one scheduling-pass
// request per pilot per wave.
//
// A round closes at the end of its instant, not when its first member
// arrives: the first wave to join arms a zero-delay clock timer, which
// fires only once every process has blocked at that instant, so the
// round holds every wave submitted then. The round is created in rank
// order — the submitter's position, such as the pipeline's index in its
// campaign — and waves of equal rank keep their arrival order. Which
// process reached the batcher first therefore decides nothing: unit ids
// and the umgr bracket are the same at any GOMAXPROCS.
//
// A wave travels in compact form, as []WaveUnit: each entry points at a
// description and carries its unit's own name and attempt. The core
// binds one description per distinct kernel of a wave, so a homogeneous
// wave of a million units shares one description, and each created
// unit keeps that pointer — the description is read-only from
// submission on. Submit takes the long form, one description per unit,
// and its units point into the caller's slice.
type WaveBatcher struct {
	um *UnitManager

	mu    sync.Mutex
	queue []*batchedWave
}

// batchedWave is one member wave of a round. Its descriptions are
// validated before it joins the queue, so creation cannot fail.
type batchedWave struct {
	rank    int
	wave    []WaveUnit
	units   []*ComputeUnit
	created *vclock.Event
}

// NewWaveBatcher returns a batcher over the unit manager.
func NewWaveBatcher(um *UnitManager) *WaveBatcher {
	return &WaveBatcher{um: um}
}

// Submit submits one bulk wave of rank 0, one description per unit:
// SubmitWave(0, wave, false) over descs. The units point into descs,
// which the caller must not modify afterwards.
func (b *WaveBatcher) Submit(descs []UnitDescription) ([]*ComputeUnit, error) {
	return b.SubmitWave(0, waveOf(descs), false)
}

// SubmitWave submits one wave through the shared batcher: validate, then
// create the wave's units — coalesced with every other wave of the same
// instant, in rank order. A bulk wave then pays its own client-side
// submission cost and is late-bound and dispatched as a whole. A
// streamed wave instead dispatches each unit as its own client-side
// cost elapses: unit i reaches its pilot at exactly the instant of an
// unbatched streamed submission (arrival + (i+1) × UMSubmitPerUnit,
// late-bound at that instant). Either way the coalescing changes only
// the wall-clock shape — shared admission and creation, fewer umgr
// brackets — as the timeline-neutrality tests gate. It must be called
// from a registered vclock process and returns the units in wave order.
// The wave slice itself is not retained.
func (b *WaveBatcher) SubmitWave(rank int, wave []WaveUnit, streamed bool) ([]*ComputeUnit, error) {
	units, err := b.join(rank, wave)
	if err != nil {
		return nil, err
	}
	if streamed {
		b.um.DispatchStreamed(units)
		return units, nil
	}
	// Client-side creation/serialization cost for this wave — each
	// member of a round pays its own, concurrently with the others.
	b.um.sess.V.Charge(time.Duration(len(units)) * b.um.sess.Cfg.UMSubmitPerUnit)
	b.um.Dispatch(units)
	return units, nil
}

// join validates the wave, enqueues it in this instant's round and
// parks until the round is created. It returns the created units in
// wave order, with no virtual time elapsed.
func (b *WaveBatcher) join(rank int, wave []WaveUnit) ([]*ComputeUnit, error) {
	// Validate before joining a round, so a malformed wave creates no
	// units, brackets no wave, and poisons no round.
	if err := validate(wave); err != nil {
		return nil, err
	}
	v := b.um.sess.V
	w := &batchedWave{rank: rank, wave: wave, created: vclock.NewEvent(v, "batched wave created")}
	b.mu.Lock()
	b.queue = append(b.queue, w)
	if len(b.queue) == 1 {
		v.After(0, b.create)
	}
	b.mu.Unlock()
	w.created.Wait()
	return w.units, nil
}

// create is the round's timer callback: it creates every queued wave's
// units in rank order under one umgr bracket and releases the members.
// A wave that joins meanwhile starts the next round.
func (b *WaveBatcher) create() {
	b.mu.Lock()
	round := b.queue
	b.queue = nil
	b.mu.Unlock()
	slices.SortStableFunc(round, func(x, y *batchedWave) int { return cmp.Compare(x.rank, y.rank) })
	b.um.beginWave()
	for _, m := range round {
		m.units = b.um.createAll(m.wave)
		m.wave = nil
	}
	b.um.endWave()
	for _, m := range round {
		m.created.Fire()
	}
}
