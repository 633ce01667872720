package core

import (
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// registerEagerMachines installs a fast-activating and a very
// slow-activating machine (10-minute batch queue), so the two regimes
// — wait-all vs eager — produce visibly different campaign starts.
//
// It also installs a pair whose pilots, submitted in set order, activate
// at one instant with different queue waits. tie1's slow submission
// round trip (2 x 1s) delays tie2's submission by 2s: tie1 waits 4.5s
// (round trip + 2.5s queue) and boots 1.502s, tie2 waits 3.002s and
// boots 1s, so both activate at 7.002s. tie1's job starts first, so its
// boot timer fires first in that instant's batch.
func registerEagerMachines(t *testing.T) {
	t.Helper()
	for _, m := range []*cluster.Machine{
		{
			Name: "test.eager.fast", Nodes: 4, CoresPerNode: 8, MemPerNodeGB: 16,
			AgentBootTime: time.Second, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 2 * time.Second,
		},
		{
			Name: "test.eager.slow", Nodes: 4, CoresPerNode: 8, MemPerNodeGB: 16,
			AgentBootTime: time.Second, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 600 * time.Second,
		},
		{
			Name: "test.eager.tie1", Nodes: 4, CoresPerNode: 8, MemPerNodeGB: 16,
			AgentBootTime: 1502 * time.Millisecond, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Second, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 2500 * time.Millisecond,
		},
		{
			Name: "test.eager.tie2", Nodes: 4, CoresPerNode: 8, MemPerNodeGB: 16,
			AgentBootTime: time.Second, TaskLaunchLatency: 10 * time.Millisecond,
			NetLatency: time.Millisecond, FSBandwidthMBps: 200, FSLatency: time.Millisecond,
			QueueWaitBase: 3 * time.Second,
		},
	} {
		if err := cluster.Register(m); err != nil {
			t.Fatal(err)
		}
	}
}

// eagerCampaign is one pipeline of fast-tagged single-core tasks: under
// tag affinity every unit binds to the fast pilot, so the slow machine
// contributes nothing but its (very long) activation wait.
func eagerCampaign() *Pipeline {
	kernel := &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 5},
		Cores: 1, Tags: []string{"fast"}}
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Kernel: kernel}
	}
	return &Pipeline{Name: "fastwork", Stages: []*Stage{{Tasks: tasks}}}
}

// runEagerCampaign executes the fast-tagged campaign on a two-pilot set
// of the named machines — the first pilot tagged "fast", the second
// "slow" — and returns the campaign report, the virtual time at which
// the campaign (not the teardown) finished, and the set.
func runEagerCampaign(t *testing.T, eager bool, first, second string) (*CampaignReport, time.Duration, *ResourceSet) {
	t.Helper()
	registerEagerMachines(t)
	v := vclock.NewVirtual()
	rs, err := NewResourceSet([]PilotSpec{
		{Resource: first, Cores: 16, Walltime: 100 * time.Hour, Tags: []string{"fast"}},
		{Resource: second, Cores: 16, Walltime: 100 * time.Hour, Tags: []string{"slow"}},
	}, Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	rs.Placement = pilot.PlaceTagAffinity(nil)
	rs.EagerSubmit = eager
	var camp *CampaignReport
	var done time.Duration
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		camp, err = NewAppManager(rs).Run(eagerCampaign())
		if err != nil {
			t.Fatal(err)
		}
		done = v.Now()
		if err := rs.Deallocate(); err != nil {
			t.Fatal(err)
		}
	})
	return camp, done, rs
}

// TestEagerSubmitSkipsSlowPilot is the PR 5 loose-end regression gate:
// with EagerSubmit, a slow-activating pilot no longer delays units
// bound to a fast one. The fast-tagged campaign must finish well before
// the slow machine's 600s queue wait would even admit its pilot, the
// reported queue wait must be the fast pilot's, and the per-pilot rows
// must carry each pilot's own wait.
//
// The "same-instant" input starts both pilots at one instant with
// different queue waits: the reported queue wait must be the smaller
// one (the second pilot's), although the first pilot's boot timer fires
// first in that instant's batch.
func TestEagerSubmitSkipsSlowPilot(t *testing.T) {
	for _, tc := range []struct {
		name, first, second string
		sameInstant         bool
	}{
		{"slow", "test.eager.fast", "test.eager.slow", false},
		{"same-instant", "test.eager.tie1", "test.eager.tie2", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			camp, done, rs := runEagerCampaign(t, true, tc.first, tc.second)
			if done >= 600*time.Second {
				t.Errorf("eager campaign finished at %v, after the slow pilot's 600s queue wait", done)
			}
			if camp.Campaign.Tasks != 8 {
				t.Errorf("campaign tasks = %d, want 8", camp.Campaign.Tasks)
			}
			if len(camp.Pilots) != 2 {
				t.Fatalf("pilot rows = %d, want 2", len(camp.Pilots))
			}
			fast, slow := camp.Pilots[0], camp.Pilots[1]
			if fast.Units != 8 || slow.Units != 0 {
				t.Errorf("unit split = %d/%d, want 8/0 (tag affinity)", fast.Units, slow.Units)
			}
			qw := camp.Campaign.QueueWait
			if tc.sameInstant {
				prof := rs.Session().Prof
				var active [2]time.Duration
				for i, p := range rs.Pilots() {
					active[i], _ = prof.First(p.Entity(), "state_ACTIVE")
				}
				if active[0] == 0 || active[0] != active[1] {
					t.Fatalf("pilots activate at %v and %v, want one instant", active[0], active[1])
				}
				if slow.QueueWait >= fast.QueueWait {
					t.Fatalf("pilot queue waits %v/%v, want the second smaller", fast.QueueWait, slow.QueueWait)
				}
				if qw != slow.QueueWait {
					t.Errorf("campaign queue wait = %v, want the smaller pilot wait %v", qw, slow.QueueWait)
				}
				return
			}
			// Queue wait is the fast pilot's (2s base + per-node), not the
			// slow machine's 600s.
			if qw < 2*time.Second || qw >= 600*time.Second {
				t.Errorf("campaign queue wait = %v, want the fast pilot's (~2s)", qw)
			}
			if fast.QueueWait < 2*time.Second || fast.QueueWait >= 600*time.Second {
				t.Errorf("fast pilot row queue wait = %v, want ~2s", fast.QueueWait)
			}
			// The slow pilot had not activated when the campaign settled, so
			// its row reports no queue wait yet.
			if slow.QueueWait != 0 {
				t.Errorf("slow pilot row queue wait = %v, want 0 (still queued)", slow.QueueWait)
			}
		})
	}
}

// TestEagerSubmitDefaultStillGates pins the default: without
// EagerSubmit the same campaign cannot start before the slowest pilot
// activates — the seed wait-all semantics the recorded multi-pilot
// tiers depend on.
func TestEagerSubmitDefaultStillGates(t *testing.T) {
	camp, done, _ := runEagerCampaign(t, false, "test.eager.fast", "test.eager.slow")
	if done < 600*time.Second {
		t.Errorf("wait-all campaign finished at %v, before the slow pilot's 600s queue wait", done)
	}
	if qw := camp.Campaign.QueueWait; qw < 600*time.Second {
		t.Errorf("campaign queue wait = %v, want the slow pilot's (>= 600s)", qw)
	}
	// Under wait-all both pilots were active before the campaign, so
	// both rows carry their own full waits.
	if len(camp.Pilots) == 2 && camp.Pilots[1].QueueWait < 600*time.Second {
		t.Errorf("slow pilot row queue wait = %v, want >= 600s", camp.Pilots[1].QueueWait)
	}
}
