package serve

import (
	"bytes"
	"fmt"
	"testing"

	"entk/internal/campaign"
)

// smallCampaign is a one-pilot graph campaign small enough to run in
// milliseconds; every instance shares one resource signature, so all
// of them land on one pool (one shared ResourceSet and batcher).
func smallCampaign(tenant string, n int) []byte {
	return []byte(fmt.Sprintf(`{
	  "name": "%s-%d",
	  "resource": "xsede.comet", "cores": 8, "walltime_min": 600,
	  "pipelines": [{"name": "%s%d", "stages": [
	    {"tasks": [{"count": 24, "kernel": {"name": "misc.sleep", "params": {"seconds": 5}}}]},
	    {"tasks": [{"count": 16, "kernel": {"name": "misc.sleep", "params": {"seconds": 3}}}]},
	    {"tasks": [{"count": 8, "kernel": {"name": "misc.sleep", "params": {"seconds": 2}}}]}
	  ]}]
	}`, tenant, n, tenant, n))
}

// holdAdmission shuts the admission queue — it reads as saturated, so
// dispatchLocked admits nothing — and returns the function that restores
// it and dispatches once. Nothing may be in flight when it is called.
func holdAdmission(a *admission) (open func()) {
	a.mu.Lock()
	max := a.maxInFlight
	a.maxInFlight, a.total = 1, 1
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		a.maxInFlight, a.total = max, 0
		starts := a.dispatchLocked()
		a.mu.Unlock()
		a.start(starts)
	}
}

// TestFairShareThreeTenants is the starvation gate: three tenants each
// submit three campaigns back to back — tenant a's full backlog lands
// before b's, b's before c's — onto one shared resource set, with one
// in-flight campaign allowed per tenant. Admission is held shut until
// all nine are queued, and the shared pool's clock is held by a phantom
// process until the first three have landed on it: a campaign takes
// milliseconds of wall time, so left alone, a's whole backlog would
// finish before b's first Submit landed and there would be no
// contention to be fair about. Everything must settle, the per-tenant
// cap must hold, and the completion order must interleave the tenants
// round by round (a FIFO queue would finish all of a before b ever
// started).
func TestFairShareThreeTenants(t *testing.T) {
	o, err := New(Options{TenantCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	open := holdAdmission(o.adm)
	spec, err := campaign.Parse(bytes.NewReader(smallCampaign("a", 0)))
	if err != nil {
		t.Fatal(err)
	}
	clock := o.poolFor(spec).v
	clock.Attach()
	tenants := []string{"a", "b", "c"}
	owner := map[string]string{} // campaign id -> tenant
	var ids []string
	for _, tn := range tenants { // staggered: a,a,a, b,b,b, c,c,c
		for i := 0; i < 3; i++ {
			st, err := o.Submit(tn, smallCampaign(tn, i))
			if err != nil {
				t.Fatal(err)
			}
			owner[st.ID] = tn
			ids = append(ids, st.ID)
		}
	}
	open()
	clock.Detach()
	for _, id := range ids {
		if err := o.Wait(id); err != nil {
			t.Fatal(err)
		}
	}

	pools := map[string]bool{}
	for _, id := range ids {
		st, err := o.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("campaign %s (%s): state %s error %q, want done",
				id, st.Tenant, st.State, st.Error)
		}
		pools[st.Pool] = true
	}
	if len(pools) != 1 {
		t.Fatalf("campaigns spread over %d pools %v, want one shared resource set", len(pools), pools)
	}

	if _, per := o.PeakInFlight(); per["a"] > 1 || per["b"] > 1 || per["c"] > 1 {
		t.Errorf("per-tenant in-flight peaks %v exceed the cap of 1", per)
	}

	done := o.CompletionOrder()
	if len(done) != 9 {
		t.Fatalf("completion order has %d entries, want 9: %v", len(done), done)
	}
	// Round-robin rounds: campaigns of one round finish at the same
	// virtual instant (identical workloads started together), so the
	// order within a round is scheduling luck — assert the SET of each
	// boundary round instead. A starving queue would put three of one
	// tenant first.
	distinct := func(seg []string) bool {
		seen := map[string]bool{}
		for _, id := range seg {
			seen[owner[id]] = true
		}
		return len(seen) == len(seg)
	}
	if !distinct(done[:3]) {
		t.Errorf("first three completions %v are not three distinct tenants (starvation)", done[:3])
	}
	if !distinct(done[6:]) {
		t.Errorf("last three completions %v are not three distinct tenants", done[6:])
	}
	// Each tenant's own campaigns must still finish in its submission
	// order (per-tenant FIFO).
	last := map[string]string{}
	for _, id := range done {
		tn := owner[id]
		if prev, ok := last[tn]; ok && id < prev {
			t.Errorf("tenant %s completed %s after %s (per-tenant FIFO broken)", tn, id, prev)
		}
		last[tn] = id
	}
}

// CompletionOrder returns the ids of settled campaigns in the order
// they completed — the fairness tests' interleaving evidence.
func (o *Orchestrator) CompletionOrder() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.completions...)
}
