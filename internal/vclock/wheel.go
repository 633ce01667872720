package vclock

import (
	"math/bits"
	"slices"
)

// The hierarchical timer wheel behind the virtual engine.
//
// The reference engine keeps pending timers in a binary heap: O(log n)
// per push and per pop, with n the total pending-timer count — 8k+ during
// the stress sweeps, and the paper's workloads fire thousands of timers
// at the same deadline (same-length tasks started at the same instant).
// The wheel makes push O(1) (a shift, a mask, a pointer link) and pops
// the entire set of earliest-deadline timers as one batch.
//
// Storage is intrusive: a sleeping process's pooled waiter IS the timer
// node (deadline, seq, tnext), and an After callback's node is embedded
// in its Timer, so the wheel allocates nothing of its own — buckets are
// just head/tail pointers and cascading relinks nodes instead of copying
// them.
//
// Layout: wheelLevels levels of wheelSlots buckets each. Level l has tick
// t_l = 2^(wheelBaseShift + wheelSlotBits*l) nanoseconds; a bucket at
// level l spans one t_l-sized window of absolute time. The base tick of
// ~1ms fits the cost model's duration distribution — launch latencies are
// tens of milliseconds, kernel durations are seconds — so level 0 buckets
// hold few distinct deadlines and levels 1-2 absorb almost all pushes:
//
//	level 0:  ~1.05ms tick,   ~268ms horizon
//	level 1:  ~268ms tick,    ~68.7s horizon
//	level 2:  ~68.7s tick,    ~4.9h horizon
//	level 3:  ~4.9h tick,     ~52d horizon
//	level 4:  ~52d tick,      ~36.6y horizon (beyond: overflow list)
//
// A timer is filed at the finest level whose window, measured from the
// wheel cursor, still contains its deadline: slot = (deadline >> shift) &
// mask. Because filing requires (deadline>>shift) - (cursor>>shift) <
// wheelSlots and the cursor never exceeds a pending deadline, each ring
// slot maps to exactly one absolute window — no lap aliasing.
//
// Unlike a ticking wheel, a discrete-event clock jumps straight to the
// earliest pending deadline, so popBatch locates the minimum instead of
// stepping: per level, an occupancy bitmap scan (four words) finds the
// first occupied bucket at or after the cursor; the candidate bucket with
// the smallest start time either fires (level 0: extract the exact
// minimum-deadline set) or cascades its contents one level down, with the
// cursor advanced to the bucket start so re-filing always lands strictly
// finer — each timer is touched at most wheelLevels times in its life.
const (
	wheelLevels    = 5
	wheelSlotBits  = 8
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelBaseShift = 20 // ~1.05ms base tick
	wheelOccWords  = wheelSlots / 64
)

func wheelShift(l int) uint { return uint(wheelBaseShift + wheelSlotBits*l) }

// wbucket is one bucket: an intrusive FIFO list of waiters linked through
// their tnext fields.
type wbucket struct {
	head, tail *waiter
}

func (b *wbucket) append(w *waiter) {
	w.tnext = nil
	if b.tail == nil {
		b.head = w
	} else {
		b.tail.tnext = w
	}
	b.tail = w
}

// wlevel is one wheel level: its buckets, their occupancy bitmap, and the
// level's timer count (so popBatch skips empty levels without touching
// their bitmaps — in steady state most levels are empty).
type wlevel struct {
	bucket [wheelSlots]wbucket
	occ    [wheelOccWords]uint64
	cnt    int
}

// scan returns the ring distance (0..wheelSlots-1) from slot `from` to
// the first occupied bucket, searching forward with wraparound.
func (lv *wlevel) scan(from int) (dist int, ok bool) {
	w, b := from>>6, uint(from&63)
	for i := 0; i <= wheelOccWords; i++ {
		idx := (w + i) & (wheelOccWords - 1)
		word := lv.occ[idx]
		if i == 0 {
			word &= ^uint64(0) << b // only bits at or after `from`
		} else if i == wheelOccWords {
			word &= 1<<b - 1 // wrapped back: only bits before `from`
		}
		if word != 0 {
			slot := idx<<6 + bits.TrailingZeros64(word)
			return (slot - from) & wheelSlotMask, true
		}
	}
	return 0, false
}

// wheel is the hierarchical calendar. Not safe for concurrent use; the
// engine serialises access under its timer lock.
type wheel struct {
	level [wheelLevels]wlevel
	// cursor is a monotone lower bound on every pending deadline; slots
	// are computed relative to it. It trails the engine's clock only
	// transiently (between a fire and the next push).
	cursor int64
	count  int
	// overflow holds timers beyond the top level's horizon (~36 years of
	// virtual time — only pathological walltime guards land here). It is
	// walked linearly, and drained back into the wheel if its earliest
	// deadline ever becomes the global minimum.
	overflow    wbucket
	overflowMin int64
}

// push files w (whose deadline and tseq the caller has set) at the finest
// level whose window contains its deadline.
func (wh *wheel) push(w *waiter) {
	wh.count++
	for l := 0; l < wheelLevels; l++ {
		sh := wheelShift(l)
		if (w.deadline>>sh)-(wh.cursor>>sh) < wheelSlots {
			slot := int(w.deadline>>sh) & wheelSlotMask
			lv := &wh.level[l]
			lv.bucket[slot].append(w)
			lv.occ[slot>>6] |= 1 << uint(slot&63)
			lv.cnt++
			return
		}
	}
	if wh.overflow.head == nil || w.deadline < wh.overflowMin {
		wh.overflowMin = w.deadline
	}
	wh.overflow.append(w)
}

// popBatch removes and returns every timer sharing the minimum pending
// deadline, in seq order, reusing buf's storage. ok is false if the wheel
// is empty; the returned slice is valid until the caller is done with it.
func (wh *wheel) popBatch(buf []*waiter) (batch []*waiter, deadline int64, ok bool) {
	if wh.count == 0 {
		return nil, 0, false
	}
	for {
		bestLevel, bestSlot := -1, 0
		var bestStart int64
		for l := 0; l < wheelLevels; l++ {
			if wh.level[l].cnt == 0 {
				continue
			}
			sh := wheelShift(l)
			csn := wh.cursor >> sh
			dist, occ := wh.level[l].scan(int(csn) & wheelSlotMask)
			if !occ {
				continue
			}
			start := (csn + int64(dist)) << sh
			// On ties the coarser level wins: its bucket spans a window
			// that may hide an earlier deadline than anything in the
			// finer bucket, so it must cascade before the finer fires.
			if bestLevel < 0 || start <= bestStart {
				bestLevel, bestStart = l, start
				bestSlot = (int(csn) + dist) & wheelSlotMask
			}
		}
		if wh.overflow.head != nil && (bestLevel < 0 || wh.overflowMin <= bestStart) {
			wh.drainOverflow()
			continue
		}
		if bestLevel == 0 {
			return wh.fire(bestSlot, buf)
		}
		wh.cascade(bestLevel, bestSlot, bestStart)
	}
}

// fire extracts the exact minimum-deadline set from a level-0 bucket. The
// bucket may mix nearby deadlines within one base tick; only the minimum
// fires, the rest stay filed.
func (wh *wheel) fire(slot int, buf []*waiter) ([]*waiter, int64, bool) {
	lv := &wh.level[0]
	b := &lv.bucket[slot]
	min := b.head.deadline
	for n := b.head.tnext; n != nil; n = n.tnext {
		if n.deadline < min {
			min = n.deadline
		}
	}
	batch := buf[:0]
	var rest wbucket
	for n := b.head; n != nil; {
		next := n.tnext
		if n.deadline == min {
			n.tnext = nil
			batch = append(batch, n)
		} else {
			rest.append(n)
		}
		n = next
	}
	*b = rest
	if rest.head == nil {
		lv.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	lv.cnt -= len(batch)
	wh.count -= len(batch)
	if min > wh.cursor {
		wh.cursor = min
	}
	// Equal-deadline timers fire in registration order, matching the
	// reference heap's (deadline, seq) tiebreak; cascading can interleave
	// bucket append order, so restore it explicitly. (Generic sort: a
	// reflect-based one boxes the batch on the engine's hottest loop.)
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b *waiter) int {
			if a.tseq < b.tseq {
				return -1
			}
			return 1
		})
	}
	return batch, min, true
}

// cascade re-files a coarse bucket's timers one level finer. Advancing
// the cursor to the bucket's start first guarantees every entry now fits
// a strictly finer level (the bucket spans one t_l window above the new
// cursor), so cascading always terminates.
func (wh *wheel) cascade(l, slot int, start int64) {
	lv := &wh.level[l]
	b := lv.bucket[slot]
	lv.bucket[slot] = wbucket{}
	lv.occ[slot>>6] &^= 1 << uint(slot&63)
	if start > wh.cursor {
		wh.cursor = start
	}
	for n := b.head; n != nil; {
		next := n.tnext
		lv.cnt--
		wh.count-- // push re-counts
		wh.push(n)
		n = next
	}
}

// drainOverflow re-files the overflow list after advancing the cursor to
// the top-level window below its earliest deadline, which is about to
// become (or already is) the global minimum.
func (wh *wheel) drainOverflow() {
	ov := wh.overflow
	wh.overflow = wbucket{}
	top := wheelShift(wheelLevels - 1)
	if c := (wh.overflowMin >> top) << top; c > wh.cursor {
		wh.cursor = c
	}
	wh.overflowMin = 0
	for n := ov.head; n != nil; {
		next := n.tnext
		wh.count-- // push re-counts
		wh.push(n)
		n = next
	}
}
