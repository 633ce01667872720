package workload

import (
	"reflect"
	"testing"

	"entk/internal/vclock"
)

// TestStress100kOversubSweep runs the full oversubscribed campaign —
// 159744 tasks, peak demand 1.375x the machine — and verifies its
// looser golden checks: the multi-wave open item from the ROADMAP.
func TestStress100kOversubSweep(t *testing.T) {
	skip100k(t)
	res, err := Stress100kOversub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckOversub(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "stress_100k_oversub", res.SimColumns())
}

// TestStress100kOversubEngineParity asserts the oversubscribed
// campaign's simulated columns are byte-identical across vclock engines
// — contention for cores across waves must still be a deterministic
// simulation.
func TestStress100kOversubEngineParity(t *testing.T) {
	skip100k(t)
	a, err := Stress100kOversubOn(nil, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stress100kOversubOn(nil, vclock.EngineRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.SimColumns(), b.SimColumns()) {
		t.Errorf("oversub campaign sim columns diverge across engines:\nhandoff:\n%s\nref:\n%s",
			a.Table(), b.Table())
	}
}

// TestStressOversubSmoke keeps the scaled-down oversubscribed campaign
// (1.375x a 1024-core sim.stress8k pilot) in every tier, including
// -short and -race, on both engines.
func TestStressOversubSmoke(t *testing.T) {
	for _, eng := range []vclock.Engine{vclock.EngineHandoff, vclock.EngineRef} {
		res, err := stressOversubSmokeOn(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckOversub(); err != nil {
			t.Errorf("engine %v: %v\n%s", eng, err, res.Table())
		}
	}
}
