// Live snapshots: a long-running service wants to stream a campaign's
// trace while the campaign is still executing, but WriteTo requires a
// quiescent profiler (its event count, intern tables, and event log are
// written in separate passes, and recorders racing those passes produce
// a dump whose records reference ids past the tables). Snapshot closes
// the gap with a copy-on-read of the store: a chunk that has filled is
// sealed — the stripe log never touches it again — so sealing chunks
// are aliased for free and only each stripe's unsealed tail (at most
// one chunk) is copied under the stripe lock. The intern tables are
// captured AFTER the store, so every id in the frozen log resolves.
package profile

import "time"

// snapshotStore is the frozen event log behind a Snapshot: per-stripe
// chunk lists of columnar records, immutable after construction. It
// refuses Record — a snapshot is a read view, not a fork.
type snapshotStore struct {
	stripes [profStripes][][]colEvent
	n       int
}

func (s *snapshotStore) record(eid, nid uint32, t time.Duration) {
	panic("profile: Record on a Snapshot profiler (snapshots are read-only)")
}

func (s *snapshotStore) forEach(fn func(eid, nid uint32, t time.Duration)) {
	for i := range s.stripes {
		for _, c := range s.stripes[i] {
			for j := range c {
				fn(c[j].eid, c[j].nid, time.Duration(c[j].t))
			}
		}
	}
}

func (s *snapshotStore) forEachEntity(eid uint32, fn func(nid uint32, t time.Duration)) {
	// An entity's events all live in one source stripe in insertion
	// order, so a full sequential scan preserves per-entity order.
	s.forEach(func(e, nid uint32, t time.Duration) {
		if e == eid {
			fn(nid, t)
		}
	})
}

func (s *snapshotStore) count() int { return s.n }

// snapshot of a snapshot: already frozen, share it.
func (s *snapshotStore) snapshot() *snapshotStore { return s }

// snapshot freezes every stripe of the columnar log.
func (c *columnarStore) snapshot() *snapshotStore {
	frozen := &snapshotStore{}
	for i := range c.stripes {
		chunks, n := c.stripes[i].freeze()
		frozen.stripes[i] = chunks
		frozen.n += n
	}
	return frozen
}

// freeze captures the stripe's records at this instant: sealed chunks
// (len == cap) are aliased — append only ever touches the tail chunk —
// and the unsealed tail is copied. The work under the stripe lock is
// O(tail), bounded by one chunk, so recorders stall for microseconds,
// not for the length of the history.
func (s *stripeLog[E]) freeze() (chunks [][]E, n int) {
	s.mu.Lock()
	chunks = make([][]E, len(s.chunks))
	copy(chunks, s.chunks)
	if last := len(chunks) - 1; last >= 0 && len(chunks[last]) < cap(chunks[last]) {
		tail := make([]E, len(chunks[last]))
		copy(tail, chunks[last])
		chunks[last] = tail
	}
	n = s.n
	s.mu.Unlock()
	return chunks, n
}

// Snapshot returns a frozen, internally consistent copy of the profiler
// that is safe to take while recorders are still running: every event
// recorded before the call is included, events racing the call are
// included or excluded whole, and every included event resolves against
// the snapshot's own intern tables. The returned profiler answers all
// queries (and WriteTo) like a quiescent profiler would; recording into
// it panics. This is what lets a service stream a live campaign's trace
// without waiting for the run's barrier.
func (p *Profiler) Snapshot() *Profiler {
	frozen := p.store.snapshot()

	// Capture the tables AFTER the store: any id in a frozen record was
	// interned before its record call, which happened before the freeze,
	// so it is covered by the counts read here. Interning in id order
	// reassigns the dense ids 0..n-1 exactly as the source allocated
	// them, so dumps and queries agree with the live profiler.
	s := &Profiler{clock: p.clock, store: frozen}
	for id, n := uint32(0), uint32(p.ents.count()); id < n; id++ {
		s.ents.intern(p.ents.resolve(id))
	}
	for id, n := uint32(0), uint32(p.names.count()); id < n; id++ {
		s.names.intern(p.names.resolve(id))
	}
	return s
}
