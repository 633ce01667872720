package pilot

// The agent scheduler: node-state bookkeeping and unit placement behind a
// small interface, with two interchangeable implementations.
//
// rescanSched is the seed's reference algorithm: every placement linearly
// scans the node array (O(nodes) per attempt, and the agent's scheduling
// pass retries every pending unit, giving O(pending x nodes) per submit or
// completion event). It is kept as the semantic baseline the tests compare
// against.
//
// indexedSched is the production path: a segment tree over node free-core
// counts answers "leftmost node with >= need free" and "largest free block"
// in O(log nodes), free-value buckets answer best-fit in O(coresPerNode),
// and running totals make infeasibility checks O(1). Combined with the
// agent's pending-need watermark (see agent.go) the continuous-scheduling
// pass becomes incremental: events that cannot place anything cost O(1),
// and a pass costs O(placed x log nodes) instead of O(pending x nodes).
//
// Both implementations place identically: single-node placement first-fit
// (lowest node index) or best-fit (fewest free cores, ties to the lowest
// index), and greedy left-to-right spanning for MPI units that no single
// node can hold. Report-level equivalence is enforced by
// TestIndexedSchedulerReportParity at the repo root.

import "math/bits"

// nodeShare is one node's contribution to a spanning allocation.
type nodeShare struct {
	node  int
	cores int
}

// allocation records the cores a unit holds: cores on a primary node,
// plus spill shares on further nodes when an MPI unit spans. The zero
// value is not a valid allocation; spill is nil for single-node units.
type allocation struct {
	node  int
	cores int
	spill []nodeShare
}

// total returns the allocation's core count.
func (a allocation) total() int {
	n := a.cores
	for _, s := range a.spill {
		n += s.cores
	}
	return n
}

// spans reports whether the allocation crosses node boundaries.
func (a allocation) spans() bool { return len(a.spill) > 0 }

// forEach visits every (node, cores) share of the allocation.
func (a allocation) forEach(fn func(node, cores int)) {
	fn(a.node, a.cores)
	for _, s := range a.spill {
		fn(s.node, s.cores)
	}
}

// scheduler is the node-packing core of the pilot agent: it owns the
// allocation's per-node free-core state and answers placement requests.
// Implementations are not safe for concurrent use; the agent serialises
// access under its mutex.
type scheduler interface {
	// tryPlace attempts to allocate cores for a unit, never blocking.
	// mpi allows the placement to span nodes when no single node fits.
	tryPlace(need int, mpi bool) (allocation, bool)
	// release returns an allocation's cores.
	release(alloc allocation)
	// freeCores reports the total free cores.
	freeCores() int
	// maxNodeFree reports the largest free-core count on any one node.
	maxNodeFree() int
	// capacity reports the total cores the scheduler manages.
	capacity() int
	// markDown removes node i from service — the fault-injection path
	// for node loss: its free cores leave the pool and its capacity is
	// forgotten, so no future placement lands there. Cores currently
	// allocated on the node are the agent's to drop at release time
	// (release must never be called with shares on a downed node).
	// Returns the capacity removed.
	markDown(node int) int
	// nodeFree snapshots per-node free cores (tests and diagnostics).
	nodeFree() []int
}

// linearScanMaxNodes is the adaptive crossover of the indexed scheduler:
// at or below this node count a placement attempt's linear scan is a
// handful of contiguous int reads and beats the segment tree's pointer
// walk on constant factor (the segment tree measured 21% behind the
// rescan scheduler at 256 cores / 16 nodes). Both implementations make
// identical placement decisions (TestSchedulerImplEquivalence), so the
// crossover is invisible to simulated time.
const linearScanMaxNodes = 32

// newScheduler builds the scheduler for an initial per-node capacity
// layout. pack selects the node-packing rule (Backfill packs first-fit;
// its queue discipline lives in the agent). rescan selects the reference
// implementation; small layouts use the linear scan either way (see
// linearScanMaxNodes).
func newScheduler(nodes []int, pack Placement, rescan bool) scheduler {
	if rescan || len(nodes) <= linearScanMaxNodes {
		return newRescanSched(nodes, pack)
	}
	return newIndexedSched(nodes, pack)
}

// ---------------------------------------------------------------------------
// rescanSched: the seed's O(nodes)-per-attempt reference implementation.

type rescanSched struct {
	nodes []int
	caps  []int
	pack  Placement
}

func newRescanSched(nodes []int, pack Placement) *rescanSched {
	s := &rescanSched{
		nodes: append([]int(nil), nodes...),
		caps:  append([]int(nil), nodes...),
		pack:  pack,
	}
	return s
}

func (s *rescanSched) tryPlace(need int, mpi bool) (allocation, bool) {
	total := 0
	for _, f := range s.nodes {
		total += f
	}
	// Single-node placement: first-fit or best-fit.
	best := -1
	for i, free := range s.nodes {
		if free < need {
			continue
		}
		if s.pack != BestFit {
			best = i
			break
		}
		if best == -1 || free < s.nodes[best] {
			best = i
		}
	}
	if best >= 0 {
		s.nodes[best] -= need
		return allocation{node: best, cores: need}, true
	}
	if !mpi || total < need {
		return allocation{}, false
	}
	// MPI spanning placement: greedy across nodes.
	alloc := allocation{node: -1}
	rem := need
	for i, free := range s.nodes {
		if free == 0 {
			continue
		}
		take := free
		if take > rem {
			take = rem
		}
		if alloc.node < 0 {
			alloc.node, alloc.cores = i, take
		} else {
			alloc.spill = append(alloc.spill, nodeShare{i, take})
		}
		rem -= take
		if rem == 0 {
			break
		}
	}
	alloc.forEach(func(node, cores int) { s.nodes[node] -= cores })
	return alloc, true
}

func (s *rescanSched) release(alloc allocation) {
	alloc.forEach(func(node, cores int) { s.nodes[node] += cores })
}

func (s *rescanSched) freeCores() int {
	total := 0
	for _, f := range s.nodes {
		total += f
	}
	return total
}

func (s *rescanSched) maxNodeFree() int {
	max := 0
	for _, f := range s.nodes {
		if f > max {
			max = f
		}
	}
	return max
}

func (s *rescanSched) capacity() int {
	total := 0
	for _, c := range s.caps {
		total += c
	}
	return total
}

func (s *rescanSched) markDown(i int) int {
	c := s.caps[i]
	s.nodes[i] = 0
	s.caps[i] = 0
	return c
}

func (s *rescanSched) nodeFree() []int { return append([]int(nil), s.nodes...) }

// ---------------------------------------------------------------------------
// indexedSched: segment tree + buckets, O(log nodes) placement.

type indexedSched struct {
	nodes []int
	caps  []int
	pack  Placement
	total int
	cap   int

	// tree is a max segment tree over per-node free cores: tree[1] is the
	// root, leaves start at leafBase. It answers maxNodeFree in O(1) and
	// "leftmost node with free >= need at index >= from" in O(log n).
	tree     []int
	leafBase int

	// buckets[v] is a bitset over node indices whose free count is
	// exactly v. Exact membership (updated on every free-count change),
	// so memory is fixed at (maxCap+1) x nodes bits and best-fit is a
	// first-set-bit scan. Only maintained for best-fit packing.
	buckets [][]uint64
	maxCap  int
}

func newIndexedSched(nodes []int, pack Placement) *indexedSched {
	n := len(nodes)
	leafBase := 1
	for leafBase < n {
		leafBase *= 2
	}
	s := &indexedSched{
		nodes:    append([]int(nil), nodes...),
		caps:     append([]int(nil), nodes...),
		pack:     pack,
		tree:     make([]int, 2*leafBase),
		leafBase: leafBase,
	}
	for i, f := range nodes {
		s.tree[leafBase+i] = f
		s.total += f
		s.cap += f
		if f > s.maxCap {
			s.maxCap = f
		}
	}
	for i := leafBase - 1; i >= 1; i-- {
		s.tree[i] = max(s.tree[2*i], s.tree[2*i+1])
	}
	if pack == BestFit {
		words := (n + 63) / 64
		s.buckets = make([][]uint64, s.maxCap+1)
		for v := range s.buckets {
			s.buckets[v] = make([]uint64, words)
		}
		for i, f := range nodes {
			s.buckets[f][i/64] |= 1 << (i % 64)
		}
	}
	return s
}

// setFree updates node i's free count across all indexes.
func (s *indexedSched) setFree(i, free int) {
	if s.buckets != nil {
		s.buckets[s.nodes[i]][i/64] &^= 1 << (i % 64)
		s.buckets[free][i/64] |= 1 << (i % 64)
	}
	s.total += free - s.nodes[i]
	s.nodes[i] = free
	j := s.leafBase + i
	s.tree[j] = free
	for j >>= 1; j >= 1; j >>= 1 {
		m := max(s.tree[2*j], s.tree[2*j+1])
		if s.tree[j] == m {
			break
		}
		s.tree[j] = m
	}
}

// leftmost returns the lowest node index >= from with free >= need, or
// -1. It walks the tree iteratively — climb right from the `from` leaf
// until a subtree's max qualifies, then descend to its leftmost
// qualifying leaf — cutting the recursive version's call overhead on the
// placement hot path.
func (s *indexedSched) leftmost(need, from int) int {
	if from >= len(s.nodes) || s.tree[1] < need {
		return -1
	}
	p := s.leafBase + from
	for {
		if s.tree[p] >= need {
			for p < s.leafBase {
				if s.tree[2*p] >= need {
					p = 2 * p
				} else {
					p = 2*p + 1
				}
			}
			if i := p - s.leafBase; i < len(s.nodes) {
				return i
			}
			return -1 // zero-padded tail leaf (need 0 never queried)
		}
		// Advance to the subtree covering the indices just right of the
		// range checked so far: climb while a right child, then step to
		// the sibling.
		for p&1 == 1 {
			p >>= 1
			if p <= 1 {
				return -1
			}
		}
		p++
	}
}

// bucketMin returns the lowest node index whose free count is exactly v,
// or -1 if none.
func (s *indexedSched) bucketMin(v int) int {
	for w, word := range s.buckets[v] {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (s *indexedSched) tryPlace(need int, mpi bool) (allocation, bool) {
	// Single-node placement.
	best := -1
	if need <= s.tree[1] {
		if s.pack == BestFit {
			for v := need; v <= s.maxCap; v++ {
				if got := s.bucketMin(v); got >= 0 {
					best = got
					break
				}
			}
		} else {
			best = s.leftmost(need, 0)
		}
	}
	if best >= 0 {
		s.setFree(best, s.nodes[best]-need)
		return allocation{node: best, cores: need}, true
	}
	if !mpi || s.total < need {
		return allocation{}, false
	}
	// MPI spanning placement: greedy left-to-right over non-empty nodes.
	alloc := allocation{node: -1}
	rem := need
	for from := 0; rem > 0; {
		i := s.leftmost(1, from)
		if i < 0 {
			break // cannot happen given total >= need
		}
		take := s.nodes[i]
		if take > rem {
			take = rem
		}
		if alloc.node < 0 {
			alloc.node, alloc.cores = i, take
		} else {
			alloc.spill = append(alloc.spill, nodeShare{i, take})
		}
		rem -= take
		from = i + 1
	}
	if rem > 0 {
		return allocation{}, false // nothing subtracted yet: clean abort
	}
	alloc.forEach(func(node, cores int) { s.setFree(node, s.nodes[node]-cores) })
	return alloc, true
}

func (s *indexedSched) release(alloc allocation) {
	alloc.forEach(func(node, cores int) { s.setFree(node, s.nodes[node]+cores) })
}

func (s *indexedSched) freeCores() int   { return s.total }
func (s *indexedSched) maxNodeFree() int { return s.tree[1] }
func (s *indexedSched) capacity() int    { return s.cap }

func (s *indexedSched) markDown(i int) int {
	s.setFree(i, 0)
	c := s.caps[i]
	s.cap -= c
	s.caps[i] = 0
	return c
}

func (s *indexedSched) nodeFree() []int { return append([]int(nil), s.nodes...) }
