package pilot

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"entk/internal/vclock"
)

// WaveBatcher coalesces bulk submission waves from many submitters —
// every live pipeline of a campaign, each advanced by clock callbacks —
// into shared unit-manager rounds: all waves enqueued at one virtual
// instant are created together under a single umgr wave bracket, and
// each wave's units reach its pilot as one bulk agent submission. A
// campaign of a thousand tiny pipelines therefore costs a handful of
// umgr waves per scheduling round instead of a thousand.
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
// submitter reached the batcher first therefore decides nothing: unit
// ids and the umgr bracket are the same at any GOMAXPROCS.
//
// Nothing parks in the batcher. A submitter hands Enqueue two
// callbacks: dispatched, called once the wave's units are with their
// pilots, and onFinal, called as each unit turns final. The round's
// creation arms the dispatches as clock timers — a bulk wave one at
// arrival + len(wave) × UMSubmitPerUnit, a streamed wave one per unit —
// and the clock fires one instant's timers in arm order, so waves due
// together dispatch in creation order (earlier rounds first, rank order
// within one), never in goroutine wake order.
//
// A wave travels in compact form, as []WaveUnit: each entry points at a
// description and carries its unit's own name and attempt. The core
// binds one description per distinct kernel of a wave, so a homogeneous
// wave of a million units shares one description, and each created
// unit keeps that pointer — the description is read-only from
// submission on. Submit takes the long form, one description per unit,
// and its units point into the caller's slice.
type WaveBatcher struct {
	um        *UnitManager
	fireRound func() // b.round, bound once

	mu    sync.Mutex
	queue []batchedWave // this instant's round
}

// batchedWave is one member wave of a round. Its descriptions are
// validated before it joins the queue, so creation cannot fail.
type batchedWave struct {
	rank       int
	streamed   bool
	wave       []WaveUnit
	units      []*ComputeUnit
	onFinal    func(*ComputeUnit)
	dispatched func([]*ComputeUnit)
}

// NewWaveBatcher returns a batcher over the unit manager.
func NewWaveBatcher(um *UnitManager) *WaveBatcher {
	b := &WaveBatcher{um: um}
	b.fireRound = b.round
	return b
}

// Submit submits one bulk wave of rank 0, one description per unit, and
// parks the calling process until the wave is dispatched. The units
// point into descs, which the caller must not modify afterwards. It
// must be called from a registered vclock process.
func (b *WaveBatcher) Submit(descs []UnitDescription) ([]*ComputeUnit, error) {
	ev := vclock.NewEvent(b.um.sess.V, "wave dispatched")
	var units []*ComputeUnit
	err := b.Enqueue(0, waveOf(descs), false, nil, func(us []*ComputeUnit) {
		units = us
		ev.Fire()
	})
	if err != nil {
		return nil, err
	}
	ev.Wait()
	return units, nil
}

// Enqueue validates one wave and queues it in this instant's round,
// without blocking. Once the round is created, a bulk wave pays its
// own client-side submission cost and is late-bound and dispatched as a
// whole; a streamed wave instead dispatches each unit as its own
// client-side cost elapses: unit i reaches its pilot at exactly the
// instant of an unbatched streamed submission (arrival + (i+1) ×
// UMSubmitPerUnit, late-bound at that instant). dispatched then gets
// the units in wave order. onFinal, if non-nil, is called once per unit
// as it turns final, possibly before dispatched (a unit no pilot can
// take fails at its bind). Both callbacks run on the clock's callback
// path, so they must not block on the clock. The wave slice itself is
// not retained past the round's creation.
func (b *WaveBatcher) Enqueue(rank int, wave []WaveUnit, streamed bool, onFinal func(*ComputeUnit), dispatched func([]*ComputeUnit)) error {
	// Validate before joining a round, so a malformed wave creates no
	// units, brackets no wave, and poisons no round.
	if err := validate(wave); err != nil {
		return err
	}
	b.mu.Lock()
	b.queue = append(b.queue, batchedWave{rank: rank, streamed: streamed, wave: wave, onFinal: onFinal, dispatched: dispatched})
	if len(b.queue) == 1 {
		b.um.sess.V.After(0, b.fireRound)
	}
	b.mu.Unlock()
	return nil
}

// round is the round's timer callback: it creates every queued wave's
// units in rank order under one umgr bracket, then arms their
// dispatches. A wave that joins meanwhile starts the next round.
func (b *WaveBatcher) round() {
	b.mu.Lock()
	round := b.queue
	b.queue = nil
	b.mu.Unlock()
	slices.SortStableFunc(round, func(x, y batchedWave) int { return cmp.Compare(x.rank, y.rank) })
	b.um.beginWave()
	for i := range round {
		m := &round[i]
		m.units = b.um.createAll(m.wave, m.onFinal)
		m.wave = nil
	}
	b.um.endWave()

	v := b.um.sess.V
	perUnit := v.Charged(b.um.sess.Cfg.UMSubmitPerUnit)
	for _, m := range round {
		switch {
		case perUnit <= 0:
			// No modelled cost (the wall clock): dispatch now.
			b.dispatchNow(&m)
		case m.streamed && len(m.units) > 0:
			s := &streamDispatch{b: b, m: m, perUnit: perUnit}
			v.After(perUnit, s.step)
		default:
			units, dispatched := m.units, m.dispatched
			v.After(time.Duration(len(units))*perUnit, func() {
				b.um.Dispatch(units)
				dispatched(units)
			})
		}
	}
	// The round's slice is spent: the next round reuses it.
	clear(round)
	b.mu.Lock()
	if b.queue == nil {
		b.queue = round[:0]
	}
	b.mu.Unlock()
}

// dispatchNow late-binds and dispatches a created member at once and
// reports it dispatched.
func (b *WaveBatcher) dispatchNow(m *batchedWave) {
	if m.streamed {
		for _, u := range m.units {
			b.um.dispatchOne(u)
		}
	} else {
		b.um.Dispatch(m.units)
	}
	m.dispatched(m.units)
}

// streamDispatch dispatches a streamed member's units one per
// client-side cost: each step dispatches the next unit and arms the
// one after it.
type streamDispatch struct {
	b       *WaveBatcher
	m       batchedWave
	next    int
	perUnit time.Duration
}

func (s *streamDispatch) step() {
	s.b.um.dispatchOne(s.m.units[s.next])
	if s.next++; s.next < len(s.m.units) {
		s.b.um.sess.V.After(s.perUnit, s.step)
		return
	}
	s.m.dispatched(s.m.units)
}
