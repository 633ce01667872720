package pilot_test

import (
	"reflect"
	"testing"
	"time"

	"entk"
	"entk/internal/pilot"
)

// runParityEoP executes the scheduler-parity workload — a 2048-unit
// single-stage ensemble on a 1024-core (64-node) Stampede pilot, large
// enough that the indexed scheduler runs unless the linear scan is
// forced.
func runParityEoP(t *testing.T) *entk.Report {
	t.Helper()
	v := entk.NewClock()
	h, err := entk.NewResourceHandle("xsede.stampede", 1024, 1000*time.Hour, entk.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	kernel := &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 5}}
	var rep *entk.Report
	v.Run(func() {
		rep, err = h.Execute(&entk.EnsembleOfPipelines{
			Pipelines:   2048,
			Stages:      1,
			StageKernel: func(int, int) *entk.Kernel { return kernel },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestIndexedSchedulerReportParity is the throughput-refactor regression
// gate: the indexed agent scheduler must be a wall-time optimisation
// only. Running the same 2048-unit ensemble with the linear scan forced
// onto the pilot (forceRescan) and on the indexed scheduler must produce
// bit-identical reports — same TTC, same phase spans and busy times,
// same task and retry counts — or the refactor changed simulated
// behaviour, not just speed.
func TestIndexedSchedulerReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity test skipped in -short mode (the forced rescan is slow by design)")
	}
	indexed := runParityEoP(t)
	restore := pilot.ForceRescan()
	rescan := runParityEoP(t)
	restore()
	if !reflect.DeepEqual(rescan, indexed) {
		t.Errorf("reports diverge between schedulers:\nrescan:\n%v\nindexed:\n%v", rescan, indexed)
	}
	// Guard against the vacuous pass: the workload must actually have run.
	if indexed.Tasks != 2048 || indexed.TTC <= 0 {
		t.Errorf("parity workload did not run: tasks=%d ttc=%v", indexed.Tasks, indexed.TTC)
	}
}
