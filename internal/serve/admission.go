// Weighted fair-share admission: the queue between accepted campaigns
// and the shared pools. Submission order is preserved per tenant
// (each tenant's campaigns start in the order it submitted them), but
// across tenants the next start always goes to the tenant whose
// in-flight share is furthest below its weight — so a tenant that
// dumps fifty campaigns cannot starve one that submits a single run a
// moment later. Per-tenant and global in-flight caps bound how much of
// the shared batcher any one tenant (and the daemon as a whole) can
// hold at once.

package serve

import "sync"

// job is one admitted-but-not-started campaign launch. run must not
// block — it hands the campaign to its pool and returns — and must see
// to it that release is called once the campaign settles.
type job struct {
	tenant string
	run    func(release func())
}

type admission struct {
	weights     map[string]float64
	tenantCap   int
	maxInFlight int

	mu       sync.Mutex
	queues   map[string][]*job
	order    []string // tenants in first-seen order (the final tiebreak)
	inflight map[string]int
	started  map[string]float64 // campaigns ever started, per tenant
	total    int

	// Stats the fairness tests assert on.
	peakTotal  int
	peakTenant map[string]int
}

func newAdmission(weights map[string]float64, tenantCap, maxInFlight int) *admission {
	w := make(map[string]float64, len(weights))
	for t, x := range weights {
		w[t] = x
	}
	return &admission{
		weights:     w,
		tenantCap:   tenantCap,
		maxInFlight: maxInFlight,
		queues:      make(map[string][]*job),
		inflight:    make(map[string]int),
		started:     make(map[string]float64),
		peakTenant:  make(map[string]int),
	}
}

func (a *admission) weight(tenant string) float64 {
	if w, ok := a.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Submit enqueues a launch for the tenant and dispatches whatever the
// caps now allow (possibly this job, possibly other tenants' backlog).
func (a *admission) Submit(tenant string, run func(release func())) {
	a.mu.Lock()
	if _, seen := a.queues[tenant]; !seen {
		a.order = append(a.order, tenant)
	}
	a.queues[tenant] = append(a.queues[tenant], &job{tenant: tenant, run: run})
	starts := a.dispatchLocked()
	a.mu.Unlock()
	a.start(starts)
}

// release returns one in-flight slot for the tenant and dispatches the
// backlog the freed slot admits.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	a.inflight[tenant]--
	a.total--
	starts := a.dispatchLocked()
	a.mu.Unlock()
	a.start(starts)
}

// start runs the dispatched jobs on the calling goroutine. For a slot
// freed by a settling campaign that goroutine is the campaign's own pool
// process, still registered on the pool's clock: the successor is
// launched at the same virtual instant the slot was freed, not whenever
// the Go scheduler gets round to a fresh goroutine while the pool's
// simulation runs on (measured: whole campaigns later, at GOMAXPROCS 2).
func (a *admission) start(jobs []*job) {
	for _, j := range jobs {
		j := j
		released := false
		var once sync.Mutex
		j.run(func() {
			once.Lock()
			done := released
			released = true
			once.Unlock()
			if !done {
				a.release(j.tenant)
			}
		})
	}
}

// dispatchLocked pops as many jobs as the caps allow, fair-share
// order: among tenants with backlog and a free per-tenant slot, pick
// the one minimising inflight/weight — the tenant furthest below its
// fair share. Ties break by started/weight (long-run throughput
// tracks the weights, not just the instantaneous share), then by
// first-seen order (deterministic).
func (a *admission) dispatchLocked() []*job {
	var starts []*job
	for {
		if a.maxInFlight > 0 && a.total >= a.maxInFlight {
			break
		}
		best := ""
		var bestShare, bestServed float64
		for _, t := range a.order {
			if len(a.queues[t]) == 0 {
				continue
			}
			if a.tenantCap > 0 && a.inflight[t] >= a.tenantCap {
				continue
			}
			w := a.weight(t)
			share, served := float64(a.inflight[t])/w, a.started[t]/w
			if best == "" || share < bestShare ||
				(share == bestShare && served < bestServed) {
				best, bestShare, bestServed = t, share, served
			}
		}
		if best == "" {
			break
		}
		q := a.queues[best]
		starts = append(starts, q[0])
		a.queues[best] = q[1:]
		a.inflight[best]++
		a.started[best]++
		a.total++
		if a.total > a.peakTotal {
			a.peakTotal = a.total
		}
		if a.inflight[best] > a.peakTenant[best] {
			a.peakTenant[best] = a.inflight[best]
		}
	}
	return starts
}

// Peak returns the peak total and per-tenant in-flight counts observed
// so far (the fairness tests' cap assertions).
func (a *admission) Peak() (total int, perTenant map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	per := make(map[string]int, len(a.peakTenant))
	for t, n := range a.peakTenant {
		per[t] = n
	}
	return a.peakTotal, per
}
