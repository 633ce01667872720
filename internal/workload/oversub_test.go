package workload

import "testing"

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
	checkSimColumns(t, "stress_100k_oversub", append(res.Pipelines, res.Campaign))
}

// TestStressOversubSmoke keeps the scaled-down oversubscribed campaign
// (1.375x a 1024-core sim.stress8k pilot) in every tier, including
// -short and -race.
func TestStressOversubSmoke(t *testing.T) {
	res, err := stressCampaignOn(StressMachine, stressOversubSmokeCores, stressOversubSmokePlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckOversub(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
}
