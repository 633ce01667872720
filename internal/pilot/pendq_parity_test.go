package pilot_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"entk"
	"entk/internal/pilot"
)

// pendInput is one workload of the pending-queue parity test: a
// single-stage ensemble on one pilot, homogeneous by default, or a
// four-class mix (1/2/4-core, serial/MPI) under the backfill policy so
// units of different placement classes genuinely interleave in the
// queue.
type pendInput struct {
	name    string
	units   int
	machine string
	cores   int
	seconds float64
	bulk    bool
	mixed   bool
	large   bool // skipped under -race
}

var pendInputs = []pendInput{
	{name: "uniform", units: 1024, machine: "xsede.stampede", cores: 1024, seconds: 5},
	{name: "backfill-mixed", units: 1024, machine: "xsede.stampede", cores: 1024, mixed: true},
	{name: "102400", units: 102400, machine: "sim.stress64k", cores: 65536, seconds: 30, bulk: true, large: true},
}

// runPendParity executes in and reports, beside the report, how many
// executed units fell into each of the mixed workload's four placement
// classes.
func runPendParity(t *testing.T, in pendInput) (*entk.Report, [4]int64) {
	t.Helper()
	v := entk.NewClock()
	rcfg := entk.DefaultRuntimeConfig()
	if in.mixed {
		rcfg.Agent = entk.AgentBackfill
	}
	h, err := entk.NewResourceHandle(in.machine, in.cores, 10000*time.Hour,
		entk.Config{Clock: v, Runtime: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	var ran [4]atomic.Int64
	uniform := &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": in.seconds}}
	kernel := func(_, pipe int) *entk.Kernel {
		if !in.mixed {
			return uniform
		}
		// Four placement classes, interleaved by pipeline index, with
		// durations that differ within a class so the backfill EASY gate
		// takes per-unit decisions.
		class := pipe % 4
		k := &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": float64(3 + pipe%7)}}
		switch class {
		case 1:
			k.Cores, k.MPI = 4, true
		case 3:
			k.Cores, k.MPI = 2, true
		}
		k.Work = func() error { ran[class].Add(1); return nil }
		return k
	}
	var rep *entk.Report
	v.Run(func() {
		rep, err = h.Execute(&entk.EnsembleOfPipelines{
			Pipelines:   in.units,
			Stages:      1,
			BulkStages:  in.bulk,
			StageKernel: kernel,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var classes [4]int64
	for i := range ran {
		classes[i] = ran[i].Load()
	}
	return rep, classes
}

// TestPendingQueueReportParity is the segmented-pending-queue regression
// gate: the segmented queue must be a wall-time optimisation only. On
// every input — including a backfill leg whose mixed core counts and
// MPI flags spread the queue across placement classes, and the 100k
// tier's oversubscribed point — the same ensemble must produce a report
// bit-identical to the seed FIFO reference (UseFIFOPending), or the
// queue rebuild changed simulated behaviour, not just speed.
func TestPendingQueueReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("pending-queue parity skipped in -short mode (reference legs are slow by design)")
	}
	for _, in := range pendInputs {
		t.Run(in.name, func(t *testing.T) {
			if in.large && raceEnabled {
				t.Skip("100k-unit leg skipped under -race")
			}
			seg, classes := runPendParity(t, in)
			restore := pilot.UseFIFOPending()
			fifo, _ := runPendParity(t, in)
			restore()
			if !reflect.DeepEqual(fifo, seg) {
				t.Errorf("reports diverge between pending queues:\nreference:\n%v\nsegmented:\n%v", fifo, seg)
			}
			// Guard against the vacuous pass: the workload must have run,
			// and the mixed leg must really have mixed its classes.
			if seg.Tasks != in.units || seg.TTC <= 0 {
				t.Errorf("parity workload did not run: tasks=%d ttc=%v", seg.Tasks, seg.TTC)
			}
			if in.mixed {
				for class, n := range classes {
					if n == 0 {
						t.Errorf("mixed workload ran no unit of placement class %d: %v", class, classes)
					}
				}
			}
		})
	}
}
