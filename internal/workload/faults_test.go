package workload

import (
	"testing"

	"entk/internal/vclock"
)

// TestFaultTierSmoke runs the shape-identical smoke plan — small enough
// for -race, covering the rebind path end to end with the tier's golden
// checks.
func TestFaultTierSmoke(t *testing.T) {
	// Named for the clock engine it runs on, as in the earlier engine
	// matrix.
	t.Run(vclock.EngineHandoff.String(), func(t *testing.T) {
		res, err := FaultTier(&FaultTierSmoke)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("%v\n%s", err, res.Table())
		}
	})
}

// TestFaultTierFull is the 98304-task acceptance gate: a mid-wave pilot
// kill on the 100k-tier machine recovers by rebinding ~half the fleet's
// in-flight units, with exact accounting and bounded recovery overhead.
func TestFaultTierFull(t *testing.T) {
	skip100k(t)
	res, err := FaultTier(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	t.Logf("\n%s", res.Table())
	checkSimColumns(t, "faults", map[string]any{
		"machine":             res.Plan.Machine,
		"pilot_cores":         res.Plan.PilotCores,
		"tasks":               res.Plan.Tasks(),
		"kill_at_s":           res.KillAtSec,
		"clean":               res.Clean,
		"faulted":             res.Faulted,
		"recovery_overhead_s": res.RecoveryOverheadSec,
	})
}
