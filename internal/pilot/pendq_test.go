package pilot

import (
	"fmt"
	"math"
	"testing"

	"entk/internal/kernels"
	"entk/internal/vclock"
)

// pendUnit builds a bare unit for direct queue tests: push/cancel/drain
// and the pass protocol touch only Desc and the pend flags, so no
// session is needed.
func pendUnit(name string, cores int, mpi bool) *ComputeUnit {
	return &ComputeUnit{Desc: UnitDescription{Name: name, Kernel: "misc.sleep", Cores: cores, MPI: mpi}}
}

// queueImpl builds the seed FIFO reference (ref) or the product's
// segmented queue.
func queueImpl(ref bool) pendingQueue {
	if ref {
		return newFIFOPending()
	}
	return newPendingQueue()
}

func (q *segPending) work() uint64 { return q.passWork }

// pendWork is the queue's cumulative internal pass cost in entry touches.
func pendWork(q pendingQueue) uint64 { return q.(interface{ work() uint64 }).work() }

// passStats snapshots the agent's pass-cost counters: passes run, units
// yielded, units placed, and the queue's cumulative internal work.
func (a *agent) passStats() (passes, scanned, placed, queueWork uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.passCount, a.passScanned, a.passPlaced, pendWork(a.pend)
}

// eachQueue runs a subtest against both pending-queue implementations.
func eachQueue(t *testing.T, fn func(t *testing.T, ref bool)) {
	t.Helper()
	for _, ref := range []bool{false, true} {
		name := "seg"
		if ref {
			name = "fifo"
		}
		t.Run(name, func(t *testing.T) { fn(t, ref) })
	}
}

// placeAll drains the queue through one pass placing every yielded unit,
// returning the yield order.
func placeAll(q pendingQueue) []*ComputeUnit {
	var out []*ComputeUnit
	q.beginPass()
	for {
		u := q.next()
		if u == nil {
			break
		}
		out = append(out, u)
		q.placed()
	}
	q.endPass()
	return out
}

// TestPendingQueueFIFOAcrossClasses pins the segmented queue's core
// invariant: bucketing by placement class must not reorder the global
// FIFO — a pass that places everything yields units in exact push order,
// however the classes interleave.
func TestPendingQueueFIFOAcrossClasses(t *testing.T) {
	eachQueue(t, func(t *testing.T, ref bool) {
		q := queueImpl(ref)
		classes := []struct {
			cores int
			mpi   bool
		}{{1, false}, {4, true}, {1, false}, {2, true}, {8, true}, {1, false}, {4, true}, {2, true}}
		var pushed []*ComputeUnit
		for i, c := range classes {
			u := pendUnit(fmt.Sprintf("u%02d", i), c.cores, c.mpi)
			q.push(u)
			pushed = append(pushed, u)
		}
		if q.size() != len(pushed) {
			t.Fatalf("size = %d, want %d", q.size(), len(pushed))
		}
		got := placeAll(q)
		if len(got) != len(pushed) {
			t.Fatalf("pass yielded %d units, want %d", len(got), len(pushed))
		}
		for i := range pushed {
			if got[i] != pushed[i] {
				t.Errorf("yield %d = %s, want %s (FIFO order)", i, got[i].Desc.Name, pushed[i].Desc.Name)
			}
		}
		if q.size() != 0 {
			t.Errorf("size after full placement = %d, want 0", q.size())
		}
	})
}

// TestPendingQueueBlockSemantics pins what block() means per
// implementation: the segmented queue stops consulting the blocked
// unit's whole class for the rest of the pass (other classes continue in
// FIFO order), and the next pass sees the class again; the FIFO
// reference maps block to skip, re-yielding later same-class units
// exactly as the seed scan did.
func TestPendingQueueBlockSemantics(t *testing.T) {
	a1 := pendUnit("a1", 1, false)
	b1 := pendUnit("b1", 4, true)
	a2 := pendUnit("a2", 1, false)
	b2 := pendUnit("b2", 4, true)
	a3 := pendUnit("a3", 1, false)

	load := func(ref bool) pendingQueue {
		q := queueImpl(ref)
		for _, u := range []*ComputeUnit{a1, b1, a2, b2, a3} {
			q.push(u)
		}
		return q
	}
	yieldNames := func(q pendingQueue, act func(u *ComputeUnit)) []string {
		var names []string
		q.beginPass()
		for {
			u := q.next()
			if u == nil {
				break
			}
			names = append(names, u.Desc.Name)
			act(u)
		}
		q.endPass()
		return names
	}
	want := func(t *testing.T, got, want []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("yield order = %v, want %v", got, want)
		}
	}

	t.Run("seg", func(t *testing.T) {
		q := load(false)
		// Place the 1-core class, block the 4-core MPI class at b1: b2
		// must not be consulted this pass.
		got := yieldNames(q, func(u *ComputeUnit) {
			if u.Desc.MPI {
				q.block()
			} else {
				q.placed()
			}
		})
		want(t, got, []string{"a1", "b1", "a2", "a3"})
		// Next pass: the blocked class is live again, in FIFO order.
		want(t, yieldNames(q, func(*ComputeUnit) { q.placed() }), []string{"b1", "b2"})
		if q.size() != 0 {
			t.Errorf("size = %d, want 0", q.size())
		}
	})
	t.Run("fifo", func(t *testing.T) {
		q := load(true)
		// The reference re-prechecks every unit of a blocked class, like
		// the seed scan: b2 is still yielded.
		got := yieldNames(q, func(u *ComputeUnit) {
			if u.Desc.MPI {
				q.block()
			} else {
				q.placed()
			}
		})
		want(t, got, []string{"a1", "b1", "a2", "b2", "a3"})
		want(t, yieldNames(q, func(*ComputeUnit) { q.placed() }), []string{"b1", "b2"})
	})
}

// TestPendingQueueSkipKeepsUnit pins skip(): the unit stays queued (the
// per-unit backfill gate failure), is not re-yielded within the pass,
// and comes back on the next pass in FIFO position.
func TestPendingQueueSkipKeepsUnit(t *testing.T) {
	eachQueue(t, func(t *testing.T, ref bool) {
		q := queueImpl(ref)
		u1, u2, u3 := pendUnit("u1", 1, false), pendUnit("u2", 1, false), pendUnit("u3", 1, false)
		for _, u := range []*ComputeUnit{u1, u2, u3} {
			q.push(u)
		}
		q.beginPass()
		if q.next() != u1 {
			t.Fatal("want u1 first")
		}
		q.skip()
		if q.next() != u2 {
			t.Fatal("want u2 after skipping u1")
		}
		q.placed()
		if q.next() != u3 {
			t.Fatal("want u3")
		}
		q.skip()
		if q.next() != nil {
			t.Fatal("skipped units must not re-yield within a pass")
		}
		q.endPass()
		if q.size() != 2 {
			t.Fatalf("size = %d, want 2", q.size())
		}
		got := placeAll(q)
		if len(got) != 2 || got[0] != u1 || got[1] != u3 {
			t.Errorf("next pass yielded %v, want [u1 u3]", got)
		}
	})
}

// TestPendingQueueCancel pins the cancellation contract shared by both
// implementations: a queued unit cancels exactly once, disappears from
// size, passes, and drain, and cancelling unknown or already-cancelled
// units reports false.
func TestPendingQueueCancel(t *testing.T) {
	eachQueue(t, func(t *testing.T, ref bool) {
		q := queueImpl(ref)
		units := make([]*ComputeUnit, 6)
		for i := range units {
			units[i] = pendUnit(fmt.Sprintf("u%d", i), 1+i%2*3, i%2 == 1)
			q.push(units[i])
		}
		if !q.cancel(units[2]) {
			t.Fatal("cancel of queued unit reported false")
		}
		if q.cancel(units[2]) {
			t.Error("second cancel reported true")
		}
		if q.cancel(pendUnit("stranger", 1, false)) {
			t.Error("cancel of never-pushed unit reported true")
		}
		if q.size() != 5 {
			t.Errorf("size = %d, want 5", q.size())
		}
		got := placeAll(q)
		for _, u := range got {
			if u == units[2] {
				t.Error("cancelled unit yielded by a pass")
			}
		}
		if len(got) != 5 {
			t.Errorf("pass yielded %d units, want 5", len(got))
		}
	})
}

// TestPendingQueueDrainOrder pins drain(): after placements and a
// cancellation, the remaining units come out in global FIFO order (agent
// stop fails them in order, and profiler event order must match the
// seed), with their pending marks cleared.
func TestPendingQueueDrainOrder(t *testing.T) {
	eachQueue(t, func(t *testing.T, ref bool) {
		q := queueImpl(ref)
		units := make([]*ComputeUnit, 9)
		for i := range units {
			units[i] = pendUnit(fmt.Sprintf("u%d", i), []int{1, 4, 2}[i%3], i%3 != 0)
			q.push(units[i])
		}
		// Place the first two in FIFO order, cancel one mid-queue.
		q.beginPass()
		q.next()
		q.placed()
		q.next()
		q.placed()
		q.endPass()
		q.cancel(units[5])
		got := q.drain()
		want := []*ComputeUnit{units[2], units[3], units[4], units[6], units[7], units[8]}
		if len(got) != len(want) {
			t.Fatalf("drained %d units, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("drain[%d] = %s, want %s", i, got[i].Desc.Name, want[i].Desc.Name)
			}
			if got[i].pendIn {
				t.Errorf("drain[%d] still marked pending", i)
			}
		}
		if q.size() != 0 {
			t.Errorf("size after drain = %d, want 0", q.size())
		}
	})
}

// TestPendingQueueWatermarks pins the watermark contract: never above
// the true minimum pending need, MaxInt when empty — and exact for the
// segmented queue, whose minima move with bucket liveness (including
// through cancellation, which the FIFO reference only repairs on its
// next full pass).
func TestPendingQueueWatermarks(t *testing.T) {
	eachQueue(t, func(t *testing.T, ref bool) {
		q := queueImpl(ref)
		if q.minNeedAny() != math.MaxInt || q.minNeedMPI() != math.MaxInt {
			t.Fatal("empty queue watermarks must be MaxInt")
		}
		u2 := pendUnit("w2", 2, false)
		q.push(pendUnit("w4", 4, true))
		q.push(u2)
		q.push(pendUnit("w8", 8, true))
		if q.minNeedAny() > 2 {
			t.Errorf("minNeedAny = %d, want <= 2", q.minNeedAny())
		}
		if q.minNeedMPI() > 4 {
			t.Errorf("minNeedMPI = %d, want <= 4", q.minNeedMPI())
		}
		if !ref {
			q.cancel(u2)
			if got := q.minNeedAny(); got != 4 {
				t.Errorf("segmented minNeedAny after cancel = %d, want exact 4", got)
			}
			if got := q.minNeedMPI(); got != 4 {
				t.Errorf("segmented minNeedMPI = %d, want exact 4", got)
			}
		}
	})
}

// TestSegPendingCompaction pins the tombstone lifecycle: mass
// cancellation under a deep single-class backlog compacts the bucket
// once dead slots dominate, so the ring's memory and the next pass's
// work track the live backlog, not its history.
func TestSegPendingCompaction(t *testing.T) {
	q := newPendingQueue().(*segPending)
	units := make([]*ComputeUnit, 512)
	for i := range units {
		units[i] = pendUnit(fmt.Sprintf("c%03d", i), 1, false)
		q.push(units[i])
	}
	// Cancel everything but every 8th unit.
	for i, u := range units {
		if i%8 != 0 {
			q.cancel(u)
		}
	}
	if q.size() != 64 {
		t.Fatalf("size = %d, want 64", q.size())
	}
	b := q.buckets[pendClass{need: 1, mpi: false}]
	if remaining := len(b.entries) - b.head; remaining > 2*64+segCompactMin {
		t.Errorf("bucket holds %d slots for 64 live units: compaction never ran", remaining)
	}
	got := placeAll(q)
	if len(got) != 64 {
		t.Fatalf("pass yielded %d units, want 64", len(got))
	}
	for i, u := range got {
		if u != units[i*8] {
			t.Errorf("yield %d = %s, want %s (FIFO among survivors)", i, u.Desc.Name, units[i*8].Desc.Name)
		}
	}
}

// TestSegPendingHeadReclaim pins the consumed-prefix reclaim: draining a
// deep homogeneous backlog via placed-at-head must eventually slide the
// ring down instead of growing the backing array without bound.
func TestSegPendingHeadReclaim(t *testing.T) {
	q := newPendingQueue().(*segPending)
	const n = 3 * segReclaimMin
	for i := 0; i < n; i++ {
		q.push(pendUnit("r", 1, false))
	}
	placed := 0
	for q.size() > 0 {
		// Saturated passes: place a few at the head, abort (capacity ran
		// out), repeat — the 1M stress tier's steady state.
		q.beginPass()
		for i := 0; i < 32 && q.next() != nil; i++ {
			q.placed()
			placed++
		}
		q.endPass()
	}
	if placed != n {
		t.Fatalf("placed %d, want %d", placed, n)
	}
	b := q.buckets[pendClass{need: 1, mpi: false}]
	if len(b.entries) >= n {
		t.Errorf("backing array still holds %d slots after draining %d units: head reclaim never ran",
			len(b.entries), n)
	}
}

// drainCost pushes n one-class units and drains them in saturated passes
// of 32 placements each — the steady state of a deep backlog — and
// returns the queue's internal work per unit.
func drainCost(ref bool, n int) float64 {
	q := queueImpl(ref)
	for i := 0; i < n; i++ {
		q.push(pendUnit("p", 1, false))
	}
	for q.size() > 0 {
		q.beginPass()
		for i := 0; i < 32 && q.next() != nil; i++ {
			q.placed()
		}
		q.endPass()
	}
	return float64(pendWork(q)) / float64(n)
}

// TestPendingQueuePassCost is the pass-cost regression gate at the queue
// level: the segmented queue's work per placed unit must be independent
// of backlog depth, while the FIFO reference's grows linearly with it —
// the O(pending) compaction this PR exists to kill. An 8x deeper backlog
// must cost the reference several times more per unit and the segmented
// queue roughly the same.
func TestPendingQueuePassCost(t *testing.T) {
	const small, big = 4096, 32768
	segRatio := drainCost(false, big) / drainCost(false, small)
	fifoRatio := drainCost(true, big) / drainCost(true, small)
	if segRatio > 1.5 {
		t.Errorf("segmented work/unit grew %.2fx over an 8x deeper backlog, want flat (<= 1.5x)", segRatio)
	}
	if fifoRatio < 4 {
		t.Errorf("reference work/unit grew only %.2fx over an 8x deeper backlog, want ~8x (>= 4x): "+
			"the reference no longer models the seed's O(pending) pass", fifoRatio)
	}
	if perUnit := drainCost(false, big); perUnit > 4 {
		t.Errorf("segmented queue touches %.2f entries per placed unit, want O(1) (<= 4)", perUnit)
	}
}

// agentDrainCost runs a deep single-class backlog through a real pilot
// agent on the selected queue implementation and returns the queue work
// per placed unit, counter-instrumented via agent.passStats.
func agentDrainCost(t *testing.T, ref bool, n int) float64 {
	t.Helper()
	v := vclock.NewVirtual()
	testSession(t, v) // registers the test.pilot machine
	if ref {
		defer useFIFOPending()()
	}
	s := NewSession(v, kernels.NewRegistry(), DefaultConfig())
	var perPlaced float64
	v.Run(func() {
		_, p := startPilot(t, s, 32)
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, n)
		for i := range descs {
			descs[i] = sleepUnit("d"+pad2(0, i), 1)
		}
		units, err := um.Submit(descs)
		if err != nil {
			t.Error(err)
			return
		}
		for _, u := range units {
			if st := u.WaitFinal(); st != UnitDone {
				t.Errorf("unit %s final state %v", u.Entity(), st)
			}
		}
		_, _, placed, work := p.agent.passStats()
		if placed != uint64(n) {
			t.Errorf("agent placed %d units, want %d", placed, n)
		}
		perPlaced = float64(work) / float64(placed)
		p.Cancel()
		p.WaitFinal()
	})
	return perPlaced
}

// TestAgentPassCostRegression is the same gate through the full agent:
// driving 8x the backlog through real scheduling passes must leave the
// segmented queue's per-unit work flat while the reference's grows with
// the backlog. This is the counter-level form of the 1M-tier throughput
// acceptance (bench/'s stress-1m workload measures the wall-clock form).
func TestAgentPassCostRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("pass-cost regression skipped in -short mode (reference legs are slow by design)")
	}
	const small, big = 512, 4096
	segRatio := agentDrainCost(t, false, big) / agentDrainCost(t, false, small)
	fifoRatio := agentDrainCost(t, true, big) / agentDrainCost(t, true, small)
	if segRatio > 2.5 {
		t.Errorf("segmented agent work/unit grew %.2fx over an 8x deeper backlog, want flat (<= 2.5x)", segRatio)
	}
	if fifoRatio < 3 {
		t.Errorf("reference agent work/unit grew only %.2fx over an 8x deeper backlog, want >= 3x", fifoRatio)
	}
}

// TestCancelUnderDeepBacklog is the cancellation-under-load gate: with a
// deep pending backlog behind a saturated pilot, cancelling most of the
// queue must cost amortized O(1) per cancel (no per-cancel scan of
// unrelated entries), the cancelled units must finish CANCELED, and the
// survivors must run to completion untouched.
func TestCancelUnderDeepBacklog(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	v.Run(func() {
		_, p := startPilot(t, s, 32)
		um := NewUnitManager(s)
		um.AddPilot(p)
		const n = 2048
		descs := make([]UnitDescription, n)
		for i := range descs {
			descs[i] = sleepUnit(fmt.Sprintf("x%04d", i), 50)
		}
		units, err := um.Submit(descs)
		if err != nil {
			t.Fatal(err)
		}
		// The first 32 are running; everything behind them is queued. No
		// virtual time passes during the cancel loop, so no scheduling
		// pass interleaves and the work delta below is cancellation cost
		// alone (tombstones plus amortized compaction).
		_, _, _, work0 := p.agent.passStats()
		for _, u := range units[64:] {
			u.Cancel()
		}
		_, _, _, work1 := p.agent.passStats()
		cancelled := uint64(len(units[64:]))
		if delta := work1 - work0; delta > 6*cancelled {
			t.Errorf("cancelling %d queued units cost %d queue touches, want amortized O(1) (<= %d)",
				cancelled, delta, 6*cancelled)
		}
		for i, u := range units {
			st := u.WaitFinal()
			switch {
			case i < 64 && st != UnitDone:
				t.Errorf("survivor %s final state %v, want DONE", u.Entity(), st)
			case i >= 64 && st != UnitCanceled:
				t.Errorf("cancelled %s final state %v, want CANCELED", u.Entity(), st)
			}
		}
		p.Cancel()
		p.WaitFinal()
	})
}
