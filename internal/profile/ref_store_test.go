package profile

import (
	"sync"
	"time"
)

// refStore is the seed layout: string-keyed Event records, striped by
// entity hash. Each record carries two string headers (~32 B of GC-scanned
// memory) exactly as the seed did; the intern table is consulted only to
// translate at the interface boundary. Kept as the reference for layout
// parity tests; no product option selects it.
type refStore struct {
	p       *Profiler
	stripes [profStripes]refStripe
}

// refStripe is one shard of the seed log: its records under a mutex.
type refStripe struct {
	mu  sync.Mutex
	evs []Event
}

// events returns the stripe's records as they stand; appends never
// write the returned prefix.
func (s *refStripe) events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evs[:len(s.evs):len(s.evs)]
}

// strHash is FNV-1a, the hash the seed store striped entities by.
func strHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *refStore) record(eid, nid uint32, t time.Duration) {
	entity := r.p.ents.resolve(eid)
	name := r.p.names.resolve(nid)
	s := &r.stripes[strHash(entity)&(profStripes-1)]
	s.mu.Lock()
	s.evs = append(s.evs, Event{Entity: entity, Name: name, T: t})
	s.mu.Unlock()
}

func (r *refStore) forEach(fn func(eid, nid uint32, t time.Duration)) {
	for i := range r.stripes {
		for _, e := range r.stripes[i].events() {
			// Both strings were interned at record time; lookups hit.
			eid, _ := r.p.ents.lookup(e.Entity)
			nid, _ := r.p.names.lookup(e.Name)
			fn(eid, nid, e.T)
		}
	}
}

func (r *refStore) forEachEntity(eid uint32, fn func(nid uint32, t time.Duration)) {
	entity := r.p.ents.resolve(eid)
	for _, e := range r.stripes[strHash(entity)&(profStripes-1)].events() {
		if e.Entity == entity {
			nid, _ := r.p.names.lookup(e.Name)
			fn(nid, e.T)
		}
	}
}

func (r *refStore) count() int {
	n := 0
	for i := range r.stripes {
		n += len(r.stripes[i].events())
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
		var log stripeLog
		evs := r.stripes[i].events()
		for _, e := range evs {
			eid, _ := r.p.ents.lookup(e.Entity)
			nid, _ := r.p.names.lookup(e.Name)
			log.append(eid, nid, int64(e.T))
		}
		frozen.stripes[i] = log.chunks
		frozen.n += len(evs)
	}
	return frozen
}

// newRefProfiler returns an empty profiler on the reference store.
func newRefProfiler(clock Clock) *Profiler {
	p := &Profiler{clock: clock}
	p.names.limit = maxNames
	p.store = &refStore{p: p}
	return p
}
