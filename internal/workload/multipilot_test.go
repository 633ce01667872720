package workload

import (
	"reflect"
	"testing"

	"entk/internal/profile"
	"entk/internal/vclock"
)

// TestMultiPilotCampaign runs the two-machine campaign on both engines
// and verifies its golden checks — exact tag routing, per-pilot
// utilization consistency, cross-machine concurrency. It is cheap
// enough for every tier (including -short and -race).
func TestMultiPilotCampaign(t *testing.T) {
	for _, eng := range []vclock.Engine{vclock.EngineHandoff, vclock.EngineRef} {
		res, err := MultiPilotCampaignOn(nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("engine %v: %v\n%s", eng, err, res.Table())
		}
		rows, util := res.SimColumns()
		checkSimColumns(t, "multipilot", map[string]any{
			"placement": res.Placement, "rows": rows, "pilot_utilization": util,
		})
	}
}

// TestMultiPilotEngineParity asserts the two-machine campaign's
// simulated columns — per-pipeline rows, the campaign aggregate, and
// the per-pilot utilization rows — are byte-identical across vclock
// engines.
func TestMultiPilotEngineParity(t *testing.T) {
	a, err := MultiPilotCampaignOn(nil, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiPilotCampaignOn(nil, vclock.EngineRef)
	if err != nil {
		t.Fatal(err)
	}
	aRows, aUtil := a.SimColumns()
	bRows, bUtil := b.SimColumns()
	if !reflect.DeepEqual(aRows, bRows) || !reflect.DeepEqual(aUtil, bUtil) {
		t.Errorf("multipilot sim columns diverge across engines:\nhandoff:\n%s\nref:\n%s",
			a.Table(), b.Table())
	}
}

// TestMultiPilotLayoutParity runs the campaign on the seed profiler
// layout and requires identical simulated columns.
func TestMultiPilotLayoutParity(t *testing.T) {
	base, err := MultiPilotCampaignOn(nil, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	var ref *MultiPilotResult
	err = WithProfLayout(profile.LayoutRef, func() error {
		var err error
		ref, err = MultiPilotCampaignOn(nil, vclock.EngineHandoff)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	baseRows, baseUtil := base.SimColumns()
	refRows, refUtil := ref.SimColumns()
	if !reflect.DeepEqual(baseRows, refRows) || !reflect.DeepEqual(baseUtil, refUtil) {
		t.Errorf("multipilot sim columns diverge across profiler layouts:\ncolumnar:\n%s\nref:\n%s",
			base.Table(), ref.Table())
	}
}
