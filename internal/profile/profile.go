// Package profile records timestamped events on the virtual clock and
// answers the duration queries behind the paper's TTC decomposition
// (toolkit core overhead, pattern overhead, execution time, staging time).
// Every layer — core, pilot, agent, batch, staging — writes into the same
// Profiler, which is what makes the stacked-bar figures reconstructible.
//
// Storage is columnar and interned: entities and event names are mapped to
// dense ids by an intern table, and each event is a pointer-free
// 12-byte {entityID, nameID, time offset} record, so at 100k-task scale
// the GC scans nothing per event (the seed layout's two string headers cost
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

// The intern table maps strings to ids through one read-locked map, and
// id→string resolution is lock-free: ids are allocated from one dense
// space and each block's slots are published through atomic pointers.
// The runtime interns its vocabulary once per session and caches the
// ids, so a lock split by hash would guard little traffic.
//
// Unit entities are the exception to string storage. A key of the form
// "unit." + pad.Int(n, 6) — the pilot layer's unit keys — is kept as the
// number n: the slot stores n, a reverse index maps n back to the id,
// and the key is rendered only when it is resolved (EntityName, Events,
// the dump, prefix queries). A unit therefore costs its id slot and its
// index entry, not a string and a map entry. Every path that interns or
// looks up a key applies the same rule, so InternUnit(42) and
// Intern("unit.000042") always name one id.
const (
	internBlockSize = 4096 // slots per block
	internMaxBlocks = 4096 // supports 16M interned keys
	// maxNames caps the event-name table: an event stores its name id
	// in 16 bits. The runtime's vocabulary is a few dozen names.
	maxNames = 1 << 16
)

// Unit keys: unitPrefix followed by at least unitWidth digits, with no
// zero padding beyond unitWidth, for n below maxUnit. A unit number the
// table could never hold as well as its other keys is kept as a string.
const (
	unitPrefix = "unit."
	unitWidth  = 6
	maxUnit    = internMaxBlocks * internBlockSize
)

// unitNumber reports whether s is the canonical key of unit n.
func unitNumber(s string) (int, bool) {
	digits, ok := strings.CutPrefix(s, unitPrefix)
	// maxUnit has 8 digits: a longer key is no unit, and parsing it
	// could overflow.
	if !ok || len(digits) < unitWidth || len(digits) > 8 ||
		(len(digits) > unitWidth && digits[0] == '0') {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, n < maxUnit
}

// internBlock holds internBlockSize consecutive ids. Each slot is a
// string or a unit number (plus one, so zero means "a string slot");
// either array is allocated by the block's first slot of its kind, so a
// block of units holds no string headers and a block of strings no
// numbers.
type internBlock struct {
	strs  atomic.Pointer[[internBlockSize]string]
	units atomic.Pointer[[internBlockSize]uint32]
}

// interner maps keys to dense uint32 ids and back. intern and lookup of
// a string take the map's read lock (alloc-free on the hit path); unit
// keys take allocMu; resolve is lock-free.
type interner struct {
	// mu guards ids, the string→id map. A writer takes allocMu under it.
	mu  sync.RWMutex
	ids map[string]uint32

	// limit caps the ids this table assigns; zero means the full
	// block space. The name table is capped at maxNames.
	limit uint32

	// allocMu serializes id allocation between strings and units and
	// guards unitIDs; n publishes the count of assigned ids (resolve and
	// the query layer size their scratch off it).
	allocMu sync.Mutex
	n       atomic.Uint32
	blocks  [internMaxBlocks]atomic.Pointer[internBlock]
	// unitIDs maps unit number n to its id plus one, in blocks of
	// internBlockSize numbers, grown as numbers arrive.
	unitIDs []*[internBlockSize]uint32
}

// intern returns the id for s, assigning one on first sight.
func (t *interner) intern(s string) uint32 {
	if n, ok := unitNumber(s); ok {
		return t.internUnit(n)
	}
	return t.internString(s)
}

// internString is intern for a key that is not a unit key.
func (t *interner) internString(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	t.allocMu.Lock()
	id, b := t.nextLocked()
	strs := b.strs.Load()
	if strs == nil {
		strs = new([internBlockSize]string)
		b.strs.Store(strs)
	}
	strs[id%internBlockSize] = s
	t.n.Store(id + 1)
	t.allocMu.Unlock()
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	t.ids[s] = id
	return id
}

// internUnit returns the id for unit n's key, assigning one on first
// sight. The caller guarantees 0 <= n < maxUnit.
func (t *interner) internUnit(n int) uint32 {
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	if id, ok := t.unitLocked(n); ok {
		return id
	}
	id, b := t.nextLocked()
	units := b.units.Load()
	if units == nil {
		units = new([internBlockSize]uint32)
		b.units.Store(units)
	}
	units[id%internBlockSize] = uint32(n) + 1
	for len(t.unitIDs) <= n/internBlockSize {
		t.unitIDs = append(t.unitIDs, nil)
	}
	idx := t.unitIDs[n/internBlockSize]
	if idx == nil {
		idx = new([internBlockSize]uint32)
		t.unitIDs[n/internBlockSize] = idx
	}
	idx[n%internBlockSize] = id + 1
	t.n.Store(id + 1)
	return id
}

// nextLocked returns the next free id and its block, allocating the
// block on first use. It does not publish the id: the caller fills the
// slot, then stores n. Caller holds allocMu.
func (t *interner) nextLocked() (uint32, *internBlock) {
	id := t.n.Load()
	if id/internBlockSize >= internMaxBlocks || (t.limit > 0 && id >= t.limit) {
		t.allocMu.Unlock()
		panic("profile: intern table full")
	}
	b := t.blocks[id/internBlockSize].Load()
	if b == nil {
		b = new(internBlock)
		t.blocks[id/internBlockSize].Store(b)
	}
	return id, b
}

// unitLocked returns the id of unit n, if it has one. Caller holds
// allocMu.
func (t *interner) unitLocked(n int) (uint32, bool) {
	if n/internBlockSize >= len(t.unitIDs) {
		return 0, false
	}
	idx := t.unitIDs[n/internBlockSize]
	if idx == nil || idx[n%internBlockSize] == 0 {
		return 0, false
	}
	return idx[n%internBlockSize] - 1, true
}

// lookup returns the id for s without assigning one.
func (t *interner) lookup(s string) (uint32, bool) {
	if n, ok := unitNumber(s); ok {
		t.allocMu.Lock()
		defer t.allocMu.Unlock()
		return t.unitLocked(n)
	}
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	return id, ok
}

// slot returns what an assigned id holds: its string, or the unit
// number n of a unit slot. Lock-free: the id was obtained through a
// synchronized path (intern or an event record), which happens-after
// the slot write.
func (t *interner) slot(id uint32) (s string, n int, unit bool) {
	b := t.blocks[id/internBlockSize].Load()
	if units := b.units.Load(); units != nil && units[id%internBlockSize] != 0 {
		return "", int(units[id%internBlockSize] - 1), true
	}
	return b.strs.Load()[id%internBlockSize], 0, false
}

// resolve returns the key for an assigned id, rendering a unit key.
func (t *interner) resolve(id uint32) string {
	s, n, unit := t.slot(id)
	if unit {
		return unitPrefix + pad.Int(n, unitWidth)
	}
	return s
}

// appendUnitKey appends unit n's key to dst.
func appendUnitKey(dst []byte, n int) []byte {
	return pad.AppendInt(append(dst, unitPrefix...), n, unitWidth)
}

// hasPrefix reports whether the key for an assigned id starts with
// prefix. A unit key is rendered, into scratch, only when prefix
// reaches past unitPrefix.
func (t *interner) hasPrefix(id uint32, prefix string, scratch *[]byte) bool {
	s, n, unit := t.slot(id)
	switch {
	case !unit:
		return strings.HasPrefix(s, prefix)
	case len(prefix) <= len(unitPrefix):
		return strings.HasPrefix(unitPrefix, prefix)
	case !strings.HasPrefix(prefix, unitPrefix):
		return false
	}
	key := appendUnitKey((*scratch)[:0], n)
	*scratch = key
	return len(key) >= len(prefix) && string(key[:len(prefix)]) == prefix
}

// copyFrom interns src's first n ids into the empty t, slot for slot,
// so t assigns the same ids to the same keys.
func (t *interner) copyFrom(src *interner, n uint32) {
	for id := uint32(0); id < n; id++ {
		if s, u, unit := src.slot(id); unit {
			t.internUnit(u)
		} else {
			t.internString(s)
		}
	}
}

// count returns the number of assigned ids.
func (t *interner) count() int { return int(t.n.Load()) }

// ---------------------------------------------------------------------------
// Chunked stripe log

// Chunk sizing: events are stored in chunks so that recording never
// re-copies the whole history (large runs record millions of events).
// Chunks start small — a stripe that only ever sees a few events costs
// little — and double up to profChunkMax. A full chunk is 24 KB, so a
// stripe's partly filled tail and the spare waiting to replace it stay
// under 0.4 B per event across the stripes at a million events.
const (
	profChunkMin = 256
	profChunkMax = 2048
)

// profStripes shards the event log so concurrent recorders (one per
// executing unit) do not serialize on one mutex. Power of two.
const profStripes = 16

// colEvent is the columnar record: the entity id, the name id, and the
// event's time as a signed 48-bit offset from its chunk's base, split
// over offLo and offHi. 12 bytes, no pointers — the GC never scans the
// event log. A name id fits 16 bits because the name table holds at
// most maxNames names.
type colEvent struct {
	eid   uint32
	offLo uint32
	nid   uint16
	offHi uint16
}

// maxOffset bounds a 48-bit offset: ±2^47 ns, about ±39 h.
const maxOffset = 1<<47 - 1

// at returns the event's time in a chunk based at base.
func (e colEvent) at(base int64) time.Duration {
	off := int64(uint64(e.offHi)<<32|uint64(e.offLo)) << 16 >> 16
	return time.Duration(base + off)
}

// eventChunk is a run of events sharing a time base: its first event's
// time.
type eventChunk struct {
	base int64
	ev   []colEvent
}

// stripeLog is one shard of the event log: a mutex, its chunks, and a
// spare chunk so rotation inside the critical section never allocates.
// The stripes are cache-line padded: recorders hammer adjacent stripes
// from many goroutines, and false sharing between their mutexes costs
// more than the append they guard. Allocating under mu was worse still
// — a GC assist triggered by the chunk allocation while the lock was
// held convoyed every concurrent recorder onto the stripe mutex.
type stripeLog struct {
	mu     sync.Mutex
	chunks []eventChunk
	spare  []colEvent
	n      int
	_      pad.Line
}

// append adds one record. The critical section is append-only: when a
// chunk fills, the pre-allocated spare is swapped in and its replacement
// is built after unlock. An event whose offset from the tail chunk's
// base does not fit 48 bits (a jump of ±39 h, or a wall-clock stamp far
// out of order) seals the chunk early and starts the next one.
func (s *stripeLog) append(eid, nid uint32, t int64) {
	s.mu.Lock()
	last := len(s.chunks) - 1
	var off int64
	if last >= 0 {
		off = t - s.chunks[last].base
	}
	fits := last >= 0 && off >= -maxOffset-1 && off <= maxOffset && (t >= s.chunks[last].base) == (off >= 0)
	if !fits || len(s.chunks[last].ev) == cap(s.chunks[last].ev) {
		if last >= 0 {
			// Sealed: a chunk never grows again, and len == cap says so
			// to freeze.
			c := &s.chunks[last]
			c.ev = c.ev[:len(c.ev):len(c.ev)]
		}
		if s.spare == nil {
			// First record on this stripe (or the spare was consumed and
			// lost a race to replacement): allocate under mu, once.
			s.spare = make([]colEvent, 0, s.nextChunkSize())
		}
		s.chunks = append(s.chunks, eventChunk{base: t, ev: s.spare})
		s.spare = nil
		last++
		off = 0
	}
	c := &s.chunks[last]
	c.ev = append(c.ev, colEvent{eid: eid, offLo: uint32(off), nid: uint16(nid), offHi: uint16(uint64(off) >> 32)})
	s.n++
	needSpare := s.spare == nil && len(c.ev) == cap(c.ev)
	var size int
	if needSpare {
		size = s.nextChunkSize()
	}
	s.mu.Unlock()
	if needSpare {
		next := make([]colEvent, 0, size)
		s.mu.Lock()
		if s.spare == nil {
			s.spare = next
		}
		s.mu.Unlock()
	}
}

// nextChunkSize doubles the tail chunk's size up to the cap. Caller
// holds mu.
func (s *stripeLog) nextChunkSize() int {
	if last := len(s.chunks) - 1; last >= 0 {
		return min(max(2*cap(s.chunks[last].ev), profChunkMin), profChunkMax)
	}
	return profChunkMin
}

// visit calls fn for every record in insertion order. Caller must not
// record into this stripe from fn (the stripe is locked while visited).
func (s *stripeLog) visit(fn func(eid, nid uint32, t time.Duration)) {
	s.mu.Lock()
	visitChunks(s.chunks, fn)
	s.mu.Unlock()
}

// visitChunks calls fn for every record of chunks, in order.
func visitChunks(chunks []eventChunk, fn func(eid, nid uint32, t time.Duration)) {
	for _, c := range chunks {
		for _, e := range c.ev {
			fn(e.eid, uint32(e.nid), e.at(c.base))
		}
	}
}

// count returns the records stored.
func (s *stripeLog) count() int {
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

// columnarStore stripes colEvents by entity id. An entity always maps to
// the same stripe, so per-entity insertion order is preserved.
type columnarStore struct {
	stripes [profStripes]stripeLog
}

func (c *columnarStore) record(eid, nid uint32, t time.Duration) {
	c.stripes[eid&(profStripes-1)].append(eid, nid, int64(t))
}

func (c *columnarStore) forEach(fn func(eid, nid uint32, t time.Duration)) {
	for i := range c.stripes {
		c.stripes[i].visit(fn)
	}
}

func (c *columnarStore) forEachEntity(eid uint32, fn func(nid uint32, t time.Duration)) {
	// Only the entity's own stripe can hold its events.
	c.stripes[eid&(profStripes-1)].visit(func(e, nid uint32, t time.Duration) {
		if e == eid {
			fn(nid, t)
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
	p := &Profiler{clock: clock, store: &columnarStore{}}
	p.names.limit = maxNames
	return p
}

// Intern returns the id for an entity key, assigning one on first sight.
// Call sites that record repeatedly for the same entity intern once and
// record by id.
func (p *Profiler) Intern(entity string) EntityID {
	return EntityID(p.ents.intern(entity))
}

// InternUnit is Intern("unit." + pad.Int(n, 6)) without the string: the
// same id, assigned in the same first-intern order, but the profiler
// keeps only the number and renders the key when it is resolved. A
// negative n, or one too large for the table, falls back to Intern of
// the rendered key.
func (p *Profiler) InternUnit(n int) EntityID {
	if n < 0 || n >= maxUnit {
		return p.Intern(unitPrefix + pad.Int(n, unitWidth))
	}
	return EntityID(p.ents.internUnit(n))
}

// InternName returns the id for an event name, assigning one on first
// sight. The runtime's fixed event vocabulary is interned once per
// session. The table holds at most 65,536 names: interning one more
// panics.
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
// stores 12 pointer-free bytes.
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
// insertion order. Each entity key is resolved once, so a unit's events
// share one rendered key.
func (p *Profiler) Events() []Event {
	out := make([]Event, 0, p.store.count())
	var keys []string
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if int(eid) >= len(keys) {
			keys = append(keys, make([]string, int(eid)+1-len(keys))...)
		}
		if keys[eid] == "" {
			keys[eid] = p.ents.resolve(eid)
		}
		out = append(out, Event{Entity: keys[eid], Name: p.names.resolve(nid), T: t})
	})
	return out
}

// matchPrefix builds the entity-id membership set for a prefix: one pass
// over the deduplicated intern table instead of a string-prefix test per
// event. The returned slice is indexed by entity id; entities
// interned after the snapshot (concurrent recorders) fall outside it and
// must be treated as non-matching by callers (see matches).
func (p *Profiler) matchPrefix(prefix string) []bool {
	n := p.ents.count()
	match := make([]bool, n)
	var scratch []byte
	for id := 0; id < n; id++ {
		match[id] = p.ents.hasPrefix(uint32(id), prefix, &scratch)
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
