package pilot

import "math"

// fifoPending is the seed's pending store: one flat FIFO slice,
// compacted in place by every pass, with watermarks tightened on push
// and recomputed exactly by any pass that scans the whole queue. Kept
// bit-for-bit equivalent to the seed agent's inline queue handling, as
// the reference the queue tests compare the segmented queue against; no
// product option selects it.
type fifoPending struct {
	units  []*ComputeUnit
	minAny int
	minMPI int

	// Pass state: units[:keep] are kept-so-far, units[scan] is the
	// current candidate, cur* fold the kept units' minima.
	scan, keep     int
	curAny, curMPI int
	passWork       uint64
}

func (q *fifoPending) push(u *ComputeUnit) {
	q.units = append(q.units, u)
	need := u.Desc.Cores
	if need < q.minAny {
		q.minAny = need
	}
	if u.Desc.MPI && need < q.minMPI {
		q.minMPI = need
	}
}

func (q *fifoPending) size() int { return len(q.units) }

func (q *fifoPending) cancel(u *ComputeUnit) bool {
	for i, x := range q.units {
		if x == u {
			q.units = append(q.units[:i], q.units[i+1:]...)
			// Watermarks may now be lower than the true minimum; that is
			// safe (at worst one extra pass recomputes them).
			return true
		}
	}
	return false
}

func (q *fifoPending) minNeedAny() int { return q.minAny }
func (q *fifoPending) minNeedMPI() int { return q.minMPI }

func (q *fifoPending) drain() []*ComputeUnit {
	us := q.units
	q.units = nil
	return us
}

func (q *fifoPending) work() uint64 { return q.passWork }

func (q *fifoPending) beginPass() {
	q.scan, q.keep = 0, 0
	q.curAny, q.curMPI = math.MaxInt, math.MaxInt
}

func (q *fifoPending) next() *ComputeUnit {
	if q.scan >= len(q.units) {
		return nil
	}
	return q.units[q.scan]
}

func (q *fifoPending) placed() { q.scan++ }

func (q *fifoPending) skip() {
	u := q.units[q.scan]
	q.units[q.keep] = u
	q.keep++
	q.scan++
	q.passWork++
	need := u.Desc.Cores
	if need < q.curAny {
		q.curAny = need
	}
	if u.Desc.MPI && need < q.curMPI {
		q.curMPI = need
	}
}

// block has no class structure to act on here: the seed scan kept
// re-prechecking later units of a blocked class, so keep doing that.
func (q *fifoPending) block() { q.skip() }

func (q *fifoPending) endPass() {
	if full := q.scan >= len(q.units); full {
		q.units = q.units[:q.keep]
		q.minAny, q.minMPI = q.curAny, q.curMPI
		return
	}
	// Aborted mid-queue (free cores ran out): keep the unscanned tail as
	// is — the seed's tail copy, the O(pending) memmove this file exists
	// to kill. The watermarks stay conservative: the tail's minima were
	// already folded in by push or an earlier full pass.
	q.passWork += uint64(len(q.units) - q.scan)
	q.keep += copy(q.units[q.keep:], q.units[q.scan:])
	q.units = q.units[:q.keep]
	if q.curAny < q.minAny {
		q.minAny = q.curAny
	}
	if q.curMPI < q.minMPI {
		q.minMPI = q.curMPI
	}
}

func newFIFOPending() pendingQueue {
	return &fifoPending{minAny: math.MaxInt, minMPI: math.MaxInt}
}

// useFIFOPending makes every agent started until restore is called queue
// on the seed FIFO: the reference leg of the queue tests and
// TestPendingQueueReportParity.
func useFIFOPending() (restore func()) {
	prev := newPendingQueue
	newPendingQueue = newFIFOPending
	return func() { newPendingQueue = prev }
}
