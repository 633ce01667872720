package pilot

import (
	"math/rand"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/kernels"
	"entk/internal/vclock"
)

// placementFixture builds a session with three unstarted pilots of
// different shapes and tags — placement policies only need the pilots'
// static shape and free-core counters, so the pilots never activate:
//
//	narrow: 16 cores on 4-core nodes, tags [cpu]
//	wide:   32 cores on 16-core nodes, tags [mpi]
//	spare:  8 cores on 4-core nodes, tags [cpu, spare]
func placementFixture(t *testing.T) []*ComputePilot {
	t.Helper()
	small := &cluster.Machine{
		Name: "test.place.small", Nodes: 8, CoresPerNode: 4, MemPerNodeGB: 8,
		AgentBootTime: time.Second, TaskLaunchLatency: time.Millisecond,
		NetLatency: time.Millisecond, FSBandwidthMBps: 100, FSLatency: time.Millisecond,
	}
	wide := &cluster.Machine{
		Name: "test.place.wide", Nodes: 2, CoresPerNode: 16, MemPerNodeGB: 32,
		AgentBootTime: time.Second, TaskLaunchLatency: time.Millisecond,
		NetLatency: time.Millisecond, FSBandwidthMBps: 100, FSLatency: time.Millisecond,
	}
	for _, m := range []*cluster.Machine{small, wide} {
		if err := cluster.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	v := vclock.NewVirtual()
	s := NewSession(v, kernels.NewRegistry(), DefaultConfig())
	pm := NewPilotManager(s)
	var pilots []*ComputePilot
	v.Run(func() {
		specs := []PilotDescription{
			{Resource: "test.place.small", Cores: 16, Walltime: time.Hour, Tags: []string{"cpu"}},
			{Resource: "test.place.wide", Cores: 32, Walltime: time.Hour, Tags: []string{"mpi"}},
			{Resource: "test.place.small", Cores: 8, Walltime: time.Hour, Tags: []string{"cpu", "spare"}},
		}
		for _, d := range specs {
			p, err := pm.Submit(d)
			if err != nil {
				t.Error(err)
				return
			}
			pilots = append(pilots, p)
		}
		// Submit leaves each pilot's batch and boot processes live; a
		// phantom process that never exits keeps the clock at t=0 after
		// Run returns, so they cannot activate (then expire) the pilots
		// while a test reads their counters.
		v.Attach()
	})
	if len(pilots) != 3 {
		t.Fatal("fixture pilots missing")
	}
	return pilots
}

func TestPlacementEligibility(t *testing.T) {
	pilots := placementFixture(t)
	rr := PlaceRoundRobin()

	// A non-MPI 8-core unit only fits the 16-core-node machine.
	d := &UnitDescription{Name: "u", Kernel: "k", Cores: 8}
	for i := 0; i < 4; i++ {
		if p := rr.Place(d, pilots); p != pilots[1] {
			t.Fatalf("8-core non-MPI unit placed on %s, want the wide-node pilot", p.Machine().Name)
		}
	}
	// An MPI unit of the same width may span nodes: any pilot with >= 8
	// cores is eligible, so round-robin alternates narrow and wide.
	mpi := &UnitDescription{Name: "m", Kernel: "k", Cores: 8, MPI: true}
	seen := map[*ComputePilot]bool{}
	for i := 0; i < 4; i++ {
		seen[PlaceRoundRobin().Place(mpi, pilots[:2])] = true
	}
	if len(seen) != 1 {
		// Fresh policies always start at the cursor origin.
		t.Fatalf("fresh round-robin policies disagree on the first pick")
	}
	// A unit larger than every pilot places nowhere.
	if p := rr.Place(&UnitDescription{Name: "x", Kernel: "k", Cores: 64, MPI: true}, pilots); p != nil {
		t.Errorf("64-core unit placed on %d-core pilot", p.Desc.Cores)
	}
}

func TestPlacementRoundRobinCycles(t *testing.T) {
	pilots := placementFixture(t)
	rr := PlaceRoundRobin()
	d := &UnitDescription{Name: "u", Kernel: "k", Cores: 1}
	var got []*ComputePilot
	for i := 0; i < 6; i++ {
		got = append(got, rr.Place(d, pilots))
	}
	for i, p := range got {
		if want := pilots[i%3]; p != want {
			t.Fatalf("pick %d = pilot %d, want pilot %d (set-order rotation)", i, p.ID, want.ID)
		}
	}
}

func TestPlacementLeastLoadedPicksFreeCores(t *testing.T) {
	pilots := placementFixture(t)
	ll := PlaceLeastLoaded()
	d := &UnitDescription{Name: "u", Kernel: "k", Cores: 1}
	// All pilots idle: the 32-core pilot has the most free cores.
	if p := ll.Place(d, pilots); p != pilots[1] {
		t.Fatalf("least-loaded picked pilot %d, want the 32-core pilot", p.ID)
	}
	// Restricted to the two small pilots, the 16-core one wins.
	if p := ll.Place(d, []*ComputePilot{pilots[0], pilots[2]}); p != pilots[0] {
		t.Fatalf("least-loaded picked pilot %d, want the 16-core pilot", p.ID)
	}
}

func TestPlacementTagAffinity(t *testing.T) {
	pilots := placementFixture(t)
	ta := PlaceTagAffinity(nil)

	// A cpu-tagged unit lands on a cpu pilot even though the untagged
	// wide pilot has more free cores.
	cpu := &UnitDescription{Name: "c", Kernel: "k", Cores: 1, Tags: []string{"cpu"}}
	for i := 0; i < 4; i++ {
		p := ta.Place(cpu, pilots)
		if p == pilots[1] {
			t.Fatalf("cpu-tagged unit leaked to the mpi pilot")
		}
	}
	// A two-tag unit needs a pilot carrying both.
	spare := &UnitDescription{Name: "s", Kernel: "k", Cores: 1, Tags: []string{"cpu", "spare"}}
	if p := ta.Place(spare, pilots); p != pilots[2] {
		t.Fatalf("cpu+spare unit placed on pilot %d, want the spare pilot", p.ID)
	}
	// A tag nobody carries falls back to all eligible pilots.
	if p := ta.Place(&UnitDescription{Name: "g", Kernel: "k", Cores: 1, Tags: []string{"gpu"}}, pilots); p == nil {
		t.Fatal("unmatched tag failed instead of falling back")
	}
	// Untagged units go through the fallback policy.
	if p := ta.Place(&UnitDescription{Name: "u", Kernel: "k", Cores: 1}, pilots); p == nil {
		t.Fatal("untagged unit placed nowhere")
	}
	// Tag affinity never overrides structural fit: a cpu-tagged non-MPI
	// 8-core unit cannot run on 4-core nodes, so it falls back to the
	// wide pilot despite the tag.
	bigCPU := &UnitDescription{Name: "b", Kernel: "k", Cores: 8, Tags: []string{"cpu"}}
	if p := ta.Place(bigCPU, pilots); p != pilots[1] {
		t.Fatalf("infeasible tagged unit placed on pilot %d, want the wide fallback", p.ID)
	}
}

// TestPlacementSkipsDeadPilots pins liveness eligibility: a pilot in a
// terminal state (walltime expiry, cancellation) is never picked, even
// when tags or free cores would favour it — its agent would fail every
// unit routed there while live pilots have capacity.
func TestPlacementSkipsDeadPilots(t *testing.T) {
	pilots := placementFixture(t)
	pilots[1].setState(PilotFailed) // the wide 32-core pilot dies
	d := &UnitDescription{Name: "u", Kernel: "k", Cores: 1}
	for i := 0; i < 4; i++ {
		if p := PlaceLeastLoaded().Place(d, pilots); p == pilots[1] {
			t.Fatal("least-loaded picked a FAILED pilot")
		}
		if p := PlaceRoundRobin().Place(d, pilots); p == pilots[1] {
			t.Fatal("round-robin picked a FAILED pilot")
		}
	}
	mpi := &UnitDescription{Name: "m", Kernel: "k", Cores: 1, Tags: []string{"mpi"}}
	if p := PlaceTagAffinity(nil).Place(mpi, pilots); p == pilots[1] || p == nil {
		t.Fatalf("tag-affinity routed to the dead tagged pilot (or nowhere): %v", p)
	}
	// All pilots dead: nothing is placeable.
	pilots[0].setState(PilotCanceled)
	pilots[2].setState(PilotDone)
	if p := PlaceRoundRobin().Place(d, pilots); p != nil {
		t.Fatalf("placed on a dead set: pilot %d", p.ID)
	}
}

// TestPlacementSoak drives every policy over a fixed-seed random unit
// stream twice and asserts (a) determinism — fresh policy instances
// produce identical pick sequences — and (b) the structural invariants:
// picks are always eligible, and tag-affinity picks carry the unit's
// tags whenever any eligible pilot does.
func TestPlacementSoak(t *testing.T) {
	pilots := placementFixture(t)
	tags := [][]string{nil, {"cpu"}, {"mpi"}, {"spare"}, {"cpu", "spare"}, {"gpu"}}
	mkStream := func(seed int64, n int) []UnitDescription {
		rng := rand.New(rand.NewSource(seed))
		descs := make([]UnitDescription, n)
		for i := range descs {
			cores := 1 + rng.Intn(16)
			mpi := rng.Intn(2) == 0
			if !mpi && cores > 4 && rng.Intn(2) == 0 {
				cores = 1 + rng.Intn(4) // keep some narrow-feasible units
			}
			descs[i] = UnitDescription{
				Name: "soak", Kernel: "k",
				Cores: cores, MPI: mpi,
				Tags: tags[rng.Intn(len(tags))],
			}
		}
		return descs
	}
	policies := map[string]func() PlacementPolicy{
		"round-robin":  PlaceRoundRobin,
		"least-loaded": PlaceLeastLoaded,
		"tag-affinity": func() PlacementPolicy { return PlaceTagAffinity(nil) },
	}
	descs := mkStream(42, 500)
	for name, mk := range policies {
		run := func() []*ComputePilot {
			pol := mk()
			out := make([]*ComputePilot, len(descs))
			for i := range descs {
				out[i] = pol.Place(&descs[i], pilots)
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: pick %d differs between identical runs", name, i)
			}
			d := &descs[i]
			if a[i] == nil {
				// Nothing eligible anywhere, or the policy failed: verify
				// the former.
				for _, p := range pilots {
					if eligible(d, p) {
						t.Fatalf("%s: pick %d nil but pilot %d is eligible (cores=%d mpi=%v)",
							name, i, p.ID, d.Cores, d.MPI)
					}
				}
				continue
			}
			if !eligible(d, a[i]) {
				t.Fatalf("%s: pick %d ineligible (unit cores=%d mpi=%v -> pilot %d on %s)",
					name, i, d.Cores, d.MPI, a[i].ID, a[i].Machine().Name)
			}
			if name == "tag-affinity" && len(d.Tags) > 0 && !hasAllTags(d, a[i]) {
				for _, p := range pilots {
					if eligible(d, p) && hasAllTags(d, p) {
						t.Fatalf("tag-affinity: pick %d ignored matching pilot %d for tags %v",
							i, p.ID, d.Tags)
					}
				}
			}
		}
	}
}
