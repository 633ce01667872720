package workload

import "testing"

// TestMultiPilotCampaign runs the two-machine campaign and verifies its
// golden checks — exact tag routing, per-pilot utilization consistency,
// cross-machine concurrency — and its simulated columns. It is cheap
// enough for every tier (including -short and -race).
func TestMultiPilotCampaign(t *testing.T) {
	res, err := MultiPilotCampaign(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "multipilot", map[string]any{
		"placement":         res.Placement,
		"rows":              append(res.Pipelines, res.Campaign),
		"pilot_utilization": res.Pilots,
	})
}
