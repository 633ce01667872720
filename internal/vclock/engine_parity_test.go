package vclock_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"entk"
	"entk/internal/vclock"
)

// eopInput is one size of the engine-parity workload: a single-stage
// ensemble of 5 s (or 30 s) sleeps on one pilot. The 102,400-unit input
// is the 100k stress tier's oversubscribed point: bulk-submitted, two
// scheduling waves on a 65,536-core machine.
type eopInput struct {
	units   int
	machine string
	cores   int
	seconds float64
	bulk    bool
	large   bool // skipped under -short and -race
}

var eopInputs = []eopInput{
	{units: 2048, machine: "xsede.stampede", cores: 1024, seconds: 5},
	{units: 102400, machine: "sim.stress64k", cores: 65536, seconds: 30, bulk: true, large: true},
}

// runEoP executes in on a fresh clock from newClock.
func runEoP(t *testing.T, in eopInput, newClock func() *vclock.Virtual) *entk.Report {
	t.Helper()
	v := newClock()
	h, err := entk.NewResourceHandle(in.machine, in.cores, 10000*time.Hour, entk.Config{Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	kernel := &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": in.seconds}}
	var rep *entk.Report
	var runErr error
	v.Run(func() {
		rep, runErr = h.Execute(&entk.EnsembleOfPipelines{
			Pipelines:   in.units,
			Stages:      1,
			BulkStages:  in.bulk,
			StageKernel: func(int, int) *entk.Kernel { return kernel },
		})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return rep
}

// TestEngineReportParity is the vclock-engine regression gate: the
// virtual engine's timer wheel and inline callbacks must be a wall-time
// optimisation only. The same ensemble, run on the virtual engine and on
// the reference engine (ref_engine_test.go), must produce bit-identical
// reports — same TTC, same phase spans and busy times, same task and
// retry counts — or the engine changed simulated behaviour, not just
// speed.
func TestEngineReportParity(t *testing.T) {
	for _, in := range eopInputs {
		t.Run(fmt.Sprint(in.units), func(t *testing.T) {
			if in.large && (testing.Short() || raceEnabled) {
				t.Skip("100k-unit leg skipped under -short and -race")
			}
			virtual := runEoP(t, in, vclock.NewVirtual)
			// Guard against the vacuous pass: the workload must have run.
			if virtual.Tasks != in.units || virtual.TTC <= 0 {
				t.Fatalf("parity workload did not run: tasks=%d ttc=%v", virtual.Tasks, virtual.TTC)
			}
			if ref := runEoP(t, in, vclock.NewRefVirtual); !reflect.DeepEqual(virtual, ref) {
				t.Errorf("report diverges between engines:\nvirtual:\n%v\nref:\n%v", virtual, ref)
			}
		})
	}
}
