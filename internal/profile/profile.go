// Package profile records timestamped events on the virtual clock and
// answers the duration queries behind the paper's TTC decomposition
// (toolkit core overhead, pattern overhead, execution time, staging time).
// Every layer — core, pilot, agent, batch, staging — writes into the same
// Profiler, which is what makes the stacked-bar figures reconstructible.
//
// Storage is columnar and interned: entities and event names are mapped to
// dense uint32 ids by a striped intern table, and each event is a
// pointer-free {entityID, nameID, t} record, so at 100k-task scale the GC
// scans nothing per event (the seed layout's two string headers cost
// ~40 B/event of scanned memory — the largest allocation source in the
// tree before this layout). The seed string-backed store survives as a
// test oracle behind the same store interface (ref_store_test.go), so
// layout parity stays testable; no product option selects it.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/pad"
)

// EntityID is an interned entity key ("unit.000042", "pilot.0001", ...).
// Ids are dense per profiler, in first-intern order.
type EntityID uint32

// NameID is an interned event name ("exec_start", "state_DONE", ...).
type NameID uint32

// Event is one timestamped occurrence for an entity, the resolved
// (string-keyed) view returned by Events and consumed by Timeline.
type Event struct {
	Entity string        // e.g. "unit.0042", "pattern", "resource"
	Name   string        // e.g. "exec_start", "exec_stop"
	T      time.Duration // virtual time
}

// ---------------------------------------------------------------------------
// Intern table

// The intern table is striped by string hash so concurrent first-time
// interns (one per created unit) do not serialize, and id→string
// resolution is lock-free: ids are allocated from one dense space and the
// strings live in append-only blocks published through atomic pointers.
const (
	internStripes   = 16   // power of two
	internBlockSize = 4096 // strings per block
	internMaxBlocks = 4096 // supports 16M interned strings
)

// internStripe holds one shard of the string→id map. Cache-line padded:
// unit creation interns from many goroutines at once.
type internStripe struct {
	mu  sync.RWMutex
	ids map[string]uint32
	_   pad.Line
}

type internBlock [internBlockSize]string

// interner maps strings to dense uint32 ids and back. intern and lookup
// take a stripe read-lock (alloc-free on the hit path); resolve is
// lock-free.
type interner struct {
	stripes [internStripes]internStripe

	// allocMu serializes id allocation across stripes; n publishes the
	// count of assigned ids (resolve and the query layer size their
	// scratch off it).
	allocMu sync.Mutex
	n       atomic.Uint32
	blocks  [internMaxBlocks]atomic.Pointer[internBlock]
}

// strHash is FNV-1a, the same hash the seed store striped entities by.
func strHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// intern returns the id for s, assigning one on first sight.
func (t *interner) intern(s string) uint32 {
	st := &t.stripes[strHash(s)&(internStripes-1)]
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	if ok {
		return id
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.ids[s]; ok {
		return id
	}
	t.allocMu.Lock()
	id = t.n.Load()
	if id/internBlockSize >= internMaxBlocks {
		t.allocMu.Unlock()
		panic("profile: intern table full")
	}
	b := t.blocks[id/internBlockSize].Load()
	if b == nil {
		b = new(internBlock)
		t.blocks[id/internBlockSize].Store(b)
	}
	b[id%internBlockSize] = s
	t.n.Store(id + 1)
	t.allocMu.Unlock()
	if st.ids == nil {
		st.ids = make(map[string]uint32)
	}
	st.ids[s] = id
	return id
}

// lookup returns the id for s without assigning one.
func (t *interner) lookup(s string) (uint32, bool) {
	st := &t.stripes[strHash(s)&(internStripes-1)]
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	return id, ok
}

// resolve returns the string for an assigned id. Lock-free: the id was
// obtained through a synchronized path (intern or an event record), which
// happens-after the slot write.
func (t *interner) resolve(id uint32) string {
	return t.blocks[id/internBlockSize].Load()[id%internBlockSize]
}

// count returns the number of assigned ids.
func (t *interner) count() int { return int(t.n.Load()) }

// ---------------------------------------------------------------------------
// Chunked stripe log

// Chunk sizing: events are stored in chunks so that recording never
// re-copies the whole history (large runs record millions of events).
// Chunks start small — a stripe that only ever sees a few events costs
// little — and double up to profChunkMax.
const (
	profChunkMin = 256
	profChunkMax = 8192
)

// profStripes shards the event log so concurrent recorders (one per
// executing unit) do not serialize on one mutex. Power of two.
const profStripes = 16

// stripeLog is one shard of an event log: a mutex, its chunked records,
// and a spare chunk so rotation inside the critical section never
// allocates. The stripes are cache-line padded: recorders hammer adjacent
// stripes from many goroutines, and false sharing between their mutexes
// costs more than the append they guard. Allocating under mu was worse
// still — a GC assist triggered by the chunk allocation while the lock was
// held convoyed every concurrent recorder onto the stripe mutex.
type stripeLog[E any] struct {
	mu     sync.Mutex
	chunks [][]E
	spare  []E
	n      int
	_      pad.Line
}

// append adds one record. The critical section is append-only: when a
// chunk fills, the pre-allocated spare is swapped in and its replacement
// is built after unlock.
func (s *stripeLog[E]) append(e E) {
	s.mu.Lock()
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		if s.spare == nil {
			// First record on this stripe (or the spare was consumed and
			// lost a race to replacement): allocate under mu, once.
			s.spare = make([]E, 0, s.nextChunkSize(last))
		}
		s.chunks = append(s.chunks, s.spare)
		s.spare = nil
		last++
	}
	s.chunks[last] = append(s.chunks[last], e)
	s.n++
	needSpare := s.spare == nil && len(s.chunks[last]) == cap(s.chunks[last])
	var size int
	if needSpare {
		size = s.nextChunkSize(last)
	}
	s.mu.Unlock()
	if needSpare {
		next := make([]E, 0, size)
		s.mu.Lock()
		if s.spare == nil {
			s.spare = next
		}
		s.mu.Unlock()
	}
}

// nextChunkSize doubles the chunk size up to the cap. Caller holds mu.
func (s *stripeLog[E]) nextChunkSize(last int) int {
	size := profChunkMin
	if last >= 0 {
		if size = 2 * cap(s.chunks[last]); size > profChunkMax {
			size = profChunkMax
		}
	}
	return size
}

// visit calls fn for every record in insertion order. Caller must not
// record into this stripe from fn (the stripe is locked while visited).
func (s *stripeLog[E]) visit(fn func(E)) {
	s.mu.Lock()
	for _, c := range s.chunks {
		for j := range c {
			fn(c[j])
		}
	}
	s.mu.Unlock()
}

// count returns the records stored.
func (s *stripeLog[E]) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// ---------------------------------------------------------------------------
// Store interface and the columnar layout

// store is the event-storage layout interface. Records travel as
// pre-interned ids in both directions; how a layout materialises them —
// pointer-free columns here, seed-style string records in the test
// oracle — is its own business.
type store interface {
	record(eid, nid uint32, t time.Duration)
	// forEach visits all events, stripe by stripe, in per-entity
	// insertion order. Cross-entity order across stripes is not
	// meaningful — queries are order-independent and Timeline sorts.
	forEach(fn func(eid, nid uint32, t time.Duration))
	// forEachEntity visits the events of one entity, in insertion order.
	forEachEntity(eid uint32, fn func(nid uint32, t time.Duration))
	count() int
	// snapshot freezes the log as it stands for Snapshot: safe to call
	// while recorders run, immutable afterwards.
	snapshot() *snapshotStore
}

// colEvent is the columnar record: two interned ids and the timestamp.
// 16 bytes, no pointers — the GC never scans the event log.
type colEvent struct {
	eid, nid uint32
	t        int64
}

// columnarStore stripes colEvents by entity id. An entity always maps to
// the same stripe, so per-entity insertion order is preserved.
type columnarStore struct {
	stripes [profStripes]stripeLog[colEvent]
}

func (c *columnarStore) record(eid, nid uint32, t time.Duration) {
	c.stripes[eid&(profStripes-1)].append(colEvent{eid: eid, nid: nid, t: int64(t)})
}

func (c *columnarStore) forEach(fn func(eid, nid uint32, t time.Duration)) {
	for i := range c.stripes {
		c.stripes[i].visit(func(e colEvent) { fn(e.eid, e.nid, time.Duration(e.t)) })
	}
}

func (c *columnarStore) forEachEntity(eid uint32, fn func(nid uint32, t time.Duration)) {
	// Only the entity's own stripe can hold its events.
	c.stripes[eid&(profStripes-1)].visit(func(e colEvent) {
		if e.eid == eid {
			fn(e.nid, time.Duration(e.t))
		}
	})
}

func (c *columnarStore) count() int {
	n := 0
	for i := range c.stripes {
		n += c.stripes[i].count()
	}
	return n
}

// ---------------------------------------------------------------------------
// Profiler

// Clock is the one thing the profiler needs from the simulation (or
// wall-clock) substrate: a current instant for each recorded event.
// Narrower than vclock.Clock on purpose — tests stamp events with fake
// clocks, and the full interface is sealed to package vclock.
type Clock interface {
	Now() time.Duration
}

// Profiler accumulates events. It is safe for concurrent use. Events are
// kept in insertion order per entity (an entity always maps to the same
// stripe); cross-entity order across stripes is not meaningful — queries
// are order-independent and Timeline sorts by time.
type Profiler struct {
	clock Clock
	ents  interner
	names interner
	store store
}

// New returns an empty profiler reading timestamps from clock.
func New(clock Clock) *Profiler {
	return &Profiler{clock: clock, store: &columnarStore{}}
}

// Intern returns the id for an entity key, assigning one on first sight.
// Call sites that record repeatedly for the same entity intern once and
// record by id.
func (p *Profiler) Intern(entity string) EntityID {
	return EntityID(p.ents.intern(entity))
}

// InternName returns the id for an event name, assigning one on first
// sight. The runtime's fixed event vocabulary is interned once per session.
func (p *Profiler) InternName(name string) NameID {
	return NameID(p.names.intern(name))
}

// EntityName resolves an interned entity id back to its key.
func (p *Profiler) EntityName(e EntityID) string { return p.ents.resolve(uint32(e)) }

// Name resolves an interned event-name id back to its string.
func (p *Profiler) Name(n NameID) string { return p.names.resolve(uint32(n)) }

// Record appends an event for entity at the current time. This is the
// string-keyed compatibility path: both keys are interned (a read-locked
// map hit once warm), then the record travels as ids. Hot paths intern
// once and call RecordID instead.
func (p *Profiler) Record(entity, name string) {
	t := p.clock.Now()
	p.store.record(p.ents.intern(entity), p.names.intern(name), t)
}

// RecordID appends an event for a pre-interned entity and name at the
// current time. On the columnar layout the steady state is alloc-free and
// stores 16 pointer-free bytes.
func (p *Profiler) RecordID(e EntityID, n NameID) {
	p.store.record(uint32(e), uint32(n), p.clock.Now())
}

// EventCount returns the number of recorded events.
func (p *Profiler) EventCount() int { return p.store.count() }

// Empty reports whether the profiler has interned nothing and recorded
// nothing — the precondition ReadFrom enforces. Callers that may hand a
// used profiler to a loader can test this cheaply instead of parsing
// the loader's error.
func (p *Profiler) Empty() bool {
	return p.ents.count() == 0 && p.names.count() == 0 && p.store.count() == 0
}

// Count returns the number of occurrences of the named event across
// entities matching the prefix. Like First/Last it streams the id
// columns: two integer compares per event.
func (p *Profiler) Count(entityPrefix, name string) int {
	want, ok := p.names.lookup(name)
	if !ok {
		return 0
	}
	match := p.matchPrefix(entityPrefix)
	n := 0
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if nid == want && matches(match, eid) {
			n++
		}
	})
	return n
}

// Events returns a copy of all events, resolved to strings, in per-entity
// insertion order.
func (p *Profiler) Events() []Event {
	out := make([]Event, 0, p.store.count())
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		out = append(out, Event{Entity: p.ents.resolve(eid), Name: p.names.resolve(nid), T: t})
	})
	return out
}

// matchPrefix builds the entity-id membership set for a prefix: one pass
// over the (small, deduplicated) intern table instead of a string-prefix
// test per event. The returned slice is indexed by entity id; entities
// interned after the snapshot (concurrent recorders) fall outside it and
// must be treated as non-matching by callers (see matches).
func (p *Profiler) matchPrefix(prefix string) []bool {
	n := p.ents.count()
	match := make([]bool, n)
	for id := 0; id < n; id++ {
		match[id] = strings.HasPrefix(p.ents.resolve(uint32(id)), prefix)
	}
	return match
}

// matches reports whether eid is in the membership set, treating ids
// interned after the set was built as non-matching — a query racing a
// recorder sees a consistent prefix snapshot instead of panicking.
func matches(match []bool, eid uint32) bool {
	return int(eid) < len(match) && match[eid]
}

// First returns the earliest timestamp of the named event for entities
// matching the prefix; ok is false if none exists. The scan streams over
// the id columns: per event it is two integer compares.
func (p *Profiler) First(entityPrefix, name string) (time.Duration, bool) {
	want, ok := p.names.lookup(name)
	if !ok {
		return 0, false
	}
	match := p.matchPrefix(entityPrefix)
	var best time.Duration
	found := false
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if nid == want && matches(match, eid) && (!found || t < best) {
			best = t
			found = true
		}
	})
	return best, found
}

// Last returns the latest timestamp of the named event for entities
// matching the prefix; ok is false if none exists.
func (p *Profiler) Last(entityPrefix, name string) (time.Duration, bool) {
	want, ok := p.names.lookup(name)
	if !ok {
		return 0, false
	}
	match := p.matchPrefix(entityPrefix)
	var best time.Duration
	found := false
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if nid == want && matches(match, eid) && (!found || t > best) {
			best = t
			found = true
		}
	})
	return best, found
}

// FirstID returns the earliest timestamp of the named event for exactly
// one pre-interned entity; ok is false if none exists. On the columnar
// layout only the entity's own stripe is scanned.
func (p *Profiler) FirstID(e EntityID, n NameID) (time.Duration, bool) {
	var best time.Duration
	found := false
	p.store.forEachEntity(uint32(e), func(nid uint32, t time.Duration) {
		if nid == uint32(n) && (!found || t < best) {
			best = t
			found = true
		}
	})
	return best, found
}

// LastID returns the latest timestamp of the named event for exactly one
// pre-interned entity; ok is false if none exists.
func (p *Profiler) LastID(e EntityID, n NameID) (time.Duration, bool) {
	var best time.Duration
	found := false
	p.store.forEachEntity(uint32(e), func(nid uint32, t time.Duration) {
		if nid == uint32(n) && (!found || t > best) {
			best = t
			found = true
		}
	})
	return best, found
}

// Span returns Last(prefix, stop) - First(prefix, start): the wall span
// from the first start to the last stop across matching entities. It is
// the figure-level "phase duration" (e.g. all simulations of an
// iteration). ok is false if either endpoint is missing.
func (p *Profiler) Span(entityPrefix, start, stop string) (time.Duration, bool) {
	a, ok1 := p.First(entityPrefix, start)
	b, ok2 := p.Last(entityPrefix, stop)
	if !ok1 || !ok2 || b < a {
		return 0, false
	}
	return b - a, true
}

// SumPairs sums, over every entity matching the prefix, the duration
// between that entity's start and stop events (pairing first start with
// first stop per entity). It measures aggregate busy time rather than wall
// span. The accumulators are flat arrays indexed by entity id — no maps,
// no string keys.
func (p *Profiler) SumPairs(entityPrefix, start, stop string) time.Duration {
	startID, ok1 := p.names.lookup(start)
	stopID, ok2 := p.names.lookup(stop)
	if !ok1 && !ok2 {
		return 0
	}
	match := p.matchPrefix(entityPrefix)
	n := p.ents.count()
	starts := make([]time.Duration, n)
	stops := make([]time.Duration, n)
	seenStart := make([]bool, n)
	seenStop := make([]bool, n)
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if !matches(match, eid) {
			return
		}
		switch {
		case ok1 && nid == startID:
			if !seenStart[eid] {
				starts[eid] = t
				seenStart[eid] = true
			}
		case ok2 && nid == stopID:
			if !seenStop[eid] {
				stops[eid] = t
				seenStop[eid] = true
			}
		}
	})
	var total time.Duration
	for id := 0; id < n; id++ {
		if seenStart[id] && seenStop[id] && stops[id] >= starts[id] {
			total += stops[id] - starts[id]
		}
	}
	return total
}

// Entities returns the sorted distinct entities matching the prefix that
// have recorded at least one event.
func (p *Profiler) Entities(prefix string) []string {
	match := p.matchPrefix(prefix)
	seen := make([]bool, len(match))
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if matches(match, eid) {
			seen[eid] = true
		}
	})
	var out []string
	for id, s := range seen {
		if s {
			out = append(out, p.ents.resolve(uint32(id)))
		}
	}
	sort.Strings(out)
	return out
}

// Timeline renders events sorted by time, for debugging.
func (p *Profiler) Timeline() string {
	evs := p.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%12v  %-24s %s\n", e.T, e.Entity, e.Name)
	}
	return b.String()
}
