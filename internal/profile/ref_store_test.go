package profile

import "time"

// refStore is the seed layout: string-keyed Event records, striped by
// entity hash. Each record carries two string headers (~32 B of GC-scanned
// memory) exactly as the seed did; the intern table is consulted only to
// translate at the interface boundary. Kept as the reference for layout
// parity tests; no product option selects it.
type refStore struct {
	p       *Profiler
	stripes [profStripes]stripeLog[Event]
}

func (r *refStore) record(eid, nid uint32, t time.Duration) {
	entity := r.p.ents.resolve(eid)
	name := r.p.names.resolve(nid)
	r.stripes[strHash(entity)&(profStripes-1)].append(Event{Entity: entity, Name: name, T: t})
}

func (r *refStore) forEach(fn func(eid, nid uint32, t time.Duration)) {
	for i := range r.stripes {
		r.stripes[i].visit(func(e Event) {
			// Both strings were interned at record time; lookups hit.
			eid, _ := r.p.ents.lookup(e.Entity)
			nid, _ := r.p.names.lookup(e.Name)
			fn(eid, nid, e.T)
		})
	}
}

func (r *refStore) forEachEntity(eid uint32, fn func(nid uint32, t time.Duration)) {
	entity := r.p.ents.resolve(eid)
	r.stripes[strHash(entity)&(profStripes-1)].visit(func(e Event) {
		if e.Entity == entity {
			nid, _ := r.p.names.lookup(e.Name)
			fn(nid, e.T)
		}
	})
}

func (r *refStore) count() int {
	n := 0
	for i := range r.stripes {
		n += r.stripes[i].count()
	}
	return n
}

// snapshot freezes the string chunks first, then translates them through
// the live intern tables (both strings were interned at record time, so
// lookups hit) into the columnar snapshot form — on immutable data,
// outside the stripe locks.
func (r *refStore) snapshot() *snapshotStore {
	frozen := &snapshotStore{}
	for i := range r.stripes {
		chunks, n := r.stripes[i].freeze()
		col := make([]colEvent, 0, n)
		for _, c := range chunks {
			for _, e := range c {
				eid, _ := r.p.ents.lookup(e.Entity)
				nid, _ := r.p.names.lookup(e.Name)
				col = append(col, colEvent{eid: eid, nid: nid, t: int64(e.T)})
			}
		}
		frozen.stripes[i] = [][]colEvent{col}
		frozen.n += n
	}
	return frozen
}

// newRefProfiler returns an empty profiler on the reference store.
func newRefProfiler(clock Clock) *Profiler {
	p := &Profiler{clock: clock}
	p.store = &refStore{p: p}
	return p
}
