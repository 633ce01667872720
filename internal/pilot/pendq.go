package pilot

import "math"

// This file is the agent's pending-unit store. The seed kept one flat
// FIFO slice and rebuilt it on every scheduling pass (skip the placed
// prefix, copy the kept tail down), which is O(pending) per pass even
// when a single unit places: at a million queued units every completion
// paid a million-pointer memmove, and the 1M stress tier collapsed from
// ~70k to ~4k units/s of wall throughput. The segmented queue below
// makes a pass O(placed × classes) instead: units are bucketed by
// placement class (exact core need × MPI flag), each bucket is a ring
// whose head index is the saturated-pass cursor (placing the head is
// head++, no memmove), and global FIFO order is preserved by a monotone
// sequence number merged across bucket heads.
//
// The seed FIFO survives as a test oracle behind the same pendingQueue
// interface and the shared pass driver in agent.go (pendq_ref_test.go),
// so the queue-parity tests can pin bit-identical simulated timelines;
// no product option selects it.
//
// The pass protocol (all calls under the owning agent's mu, which is
// held for the whole pass, so no queue mutation interleaves):
//
//	q.beginPass()
//	for {
//	    u := q.next()            // next live unit in FIFO (seq) order
//	    if u == nil { break }
//	    // exactly one of:
//	    q.placed()               // remove u: it was launched
//	    q.skip()                 // keep u, step past it (per-unit
//	                             // backfill-gate failure)
//	    q.block()                // keep u, stop consulting its whole
//	                             // placement class this pass
//	}
//	q.endPass()
//
// block() is sound for the segmented queue because the feasibility
// precheck depends only on (need, MPI) and the free-core state, which
// is monotone non-increasing within a pass (the agent lock is held, no
// release lands mid-pass): if one unit of a class fails the precheck,
// every later unit of that class fails it too, so skipping the rest of
// the bucket drops no placement the seed scan would have made. The
// backfill EASY gate is NOT class-uniform (predicted durations differ
// within a class), so gate failures must use skip(), never block().
// The FIFO reference maps block() to skip() — re-prechecking later
// same-class units exactly as the seed scan did, with the same
// placement outcome and the seed's cost.
type pendingQueue interface {
	// push appends a unit in FIFO order. Caller holds the agent's mu.
	push(u *ComputeUnit)
	// size is the number of queued units.
	size() int
	// minNeedAny/minNeedMPI are the pending-need watermarks: never above
	// the true minimum core need over queued units (math.MaxInt when
	// empty). The FIFO reference keeps the seed's conservative scheme;
	// the segmented queue reads exact bucket minima.
	minNeedAny() int
	minNeedMPI() int
	// drain removes and returns every queued unit in FIFO order (agent
	// stop fails them in order; profiler event order must match the seed).
	drain() []*ComputeUnit

	beginPass()
	next() *ComputeUnit
	placed()
	skip()
	block()
	endPass()
}

// newPendingQueue builds an agent's pending store. A variable only so
// the queue-parity tests can swap in the seed FIFO (pendq_ref_test.go).
var newPendingQueue = func() pendingQueue {
	return &segPending{buckets: make(map[pendClass]*segBucket)}
}

// pendClass is a placement class: units of one class are
// indistinguishable to the feasibility precheck.
type pendClass struct {
	need int
	mpi  bool
}

// segEntry is one queue slot. A nil unit is a dead slot (placed past
// skipped entries), dropped lazily when a cursor walks over it.
type segEntry struct {
	seq uint64
	u   *ComputeUnit
}

// segBucket is one placement class's FIFO: entries[head:] holds the
// not-yet-consumed slots (live + dead), in push order. head is the
// saturated-pass cursor — placing the first live unit advances it in
// O(1), so a pass never rescans the placed prefix.
type segBucket struct {
	class   pendClass
	entries []segEntry
	head    int
	live    int // live entries in entries[head:]
	dead    int // dead entries in entries[head:]

	// Pass-local state, lazily reset when pass != the queue's epoch.
	pass    uint64
	scan    int
	blocked bool
}

// segReclaimMin: the consumed prefix entries[:head] is slid off once it
// is at least this long and at least half the slots in use. The slide
// moves into a smaller array when the rest fills a quarter of the
// backing array or less, so the ring's memory tracks the live backlog
// and a drained bucket holds at most a short array.
const segReclaimMin = 1024

// segPending is the segmented pending queue: per-class ring buckets,
// global FIFO order by sequence-number merge across bucket cursors.
type segPending struct {
	buckets map[pendClass]*segBucket
	order   []*segBucket // stable iteration order (few classes)
	nextSeq uint64
	n       int

	epoch uint64
	cur   *segBucket // bucket of the unit last yielded by next

	// passWork is the cumulative internal pass cost in entry touches
	// (moves, copies, dead-slot drops). The pass-cost regression tests
	// pin that the segmented queue's work per placed unit is independent
	// of backlog depth, while the FIFO reference's grows with it.
	passWork uint64
}

func (q *segPending) push(u *ComputeUnit) {
	c := pendClass{need: u.desc.Cores, mpi: u.desc.MPI}
	b := q.buckets[c]
	if b == nil {
		b = &segBucket{class: c}
		q.buckets[c] = b
		q.order = append(q.order, b)
	}
	b.entries = append(b.entries, segEntry{seq: q.nextSeq, u: u})
	q.nextSeq++
	b.live++
	q.n++
}

func (q *segPending) size() int { return q.n }

func (q *segPending) minNeedAny() int {
	min := math.MaxInt
	for _, b := range q.order {
		if b.live > 0 && b.class.need < min {
			min = b.class.need
		}
	}
	return min
}

func (q *segPending) minNeedMPI() int {
	min := math.MaxInt
	for _, b := range q.order {
		if b.live > 0 && b.class.mpi && b.class.need < min {
			min = b.class.need
		}
	}
	return min
}

func (q *segPending) drain() []*ComputeUnit {
	out := make([]*ComputeUnit, 0, q.n)
	for {
		var best *segBucket
		for _, b := range q.order {
			for b.head < len(b.entries) && b.entries[b.head].u == nil {
				b.head++
				b.dead--
			}
			if b.head >= len(b.entries) {
				continue
			}
			if best == nil || b.entries[b.head].seq < best.entries[best.head].seq {
				best = b
			}
		}
		if best == nil {
			break
		}
		e := &best.entries[best.head]
		out = append(out, e.u)
		e.u = nil
		best.head++
		best.live--
	}
	q.buckets = make(map[pendClass]*segBucket)
	q.order = nil
	q.n = 0
	return out
}

func (q *segPending) beginPass() {
	q.epoch++
	q.cur = nil
}

// next yields the lowest-sequence live unit among unblocked,
// unexhausted buckets — the same unit the seed's FIFO scan would try
// next, found in O(classes) instead of by walking the queue.
func (q *segPending) next() *ComputeUnit {
	var best *segBucket
	for _, b := range q.order {
		if b.pass != q.epoch {
			b.pass = q.epoch
			b.scan = b.head
			b.blocked = false
		}
		if b.blocked || b.live == 0 {
			continue
		}
		// Step the cursor over dead slots, dropping them from the head.
		for b.scan < len(b.entries) && b.entries[b.scan].u == nil {
			if b.scan == b.head {
				b.head++
				b.dead--
			}
			b.scan++
			q.passWork++
		}
		if b.scan >= len(b.entries) {
			continue
		}
		if best == nil || b.entries[b.scan].seq < best.entries[best.scan].seq {
			best = b
		}
	}
	q.cur = best
	if best == nil {
		return nil
	}
	q.passWork++
	return best.entries[best.scan].u
}

func (q *segPending) placed() {
	b := q.cur
	b.entries[b.scan].u = nil
	b.live--
	q.n--
	if b.scan == b.head {
		// Placed at the cursor head: consume in O(1). This is the hot
		// path of a deep homogeneous backlog — no memmove, ever.
		b.head++
		b.scan++
		q.reclaim(b)
	} else {
		// Placed past skipped entries (backfill overtake): the slot dies
		// in place and is dropped when a cursor next reaches it.
		b.dead++
		b.scan++
	}
}

// reclaim slides a long consumed prefix off the ring, and rewinds a
// short one that drained the bucket, so a short backlog that cycles
// reuses its array instead of regrowing it. Only called with scan ==
// head (placed-at-head), so both cursors shift together.
func (q *segPending) reclaim(b *segBucket) {
	if b.head == len(b.entries) && b.head < segReclaimMin {
		b.entries, b.head, b.scan = b.entries[:0], 0, 0
		return
	}
	if b.head < segReclaimMin || b.head*2 < len(b.entries) {
		return
	}
	rest := b.entries[b.head:]
	n := len(rest)
	q.passWork += uint64(n)
	if n <= cap(b.entries)/4 {
		b.entries = append(make([]segEntry, 0, 2*n), rest...)
	} else {
		copy(b.entries, rest)
		clear(b.entries[n:])
		b.entries = b.entries[:n]
	}
	b.scan -= b.head
	b.head = 0
}

func (q *segPending) skip() { q.cur.scan++ }

func (q *segPending) block() { q.cur.blocked = true }

func (q *segPending) endPass() { q.cur = nil }
