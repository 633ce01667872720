package pilot_test

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"entk/internal/kernels"
	"entk/internal/pilot"
	"entk/internal/vclock"
)

// Unit footprint gates. Both are counters, not timings, so they hold on
// any machine: the size of a unit, and the heap a unit allocates over
// its life.
const (
	// maxUnitSize bounds unsafe.Sizeof(ComputeUnit{}), 120 B at this
	// writing (368 B with the description held by value). The
	// description is shared through a pointer, the profiler entity is an
	// id, the final event is a vclock.Latch without a clock or name of
	// its own, and the final-state callback is one func word.
	maxUnitSize = 160
	// maxUnitBytes bounds the bytes allocated per unit by a 4,096-unit
	// homogeneous wave, from submission through the batcher to DONE:
	// the unit itself, its profiler events, its run's timers and the
	// wave's bookkeeping. Measured at 783 B and 5.05 allocations per
	// unit with 12-byte events (826-828 B with 16-byte ones; go1.24,
	// linux/amd64; 1,216 B with the description held by value in a
	// 368 B unit and a string entity key). Holding one
	// UnitDescription per unit again would cross the bound.
	maxUnitBytes = 950
)

// footprintSession boots one pilot wide enough for the whole wave and
// returns the batcher that submits to it.
func footprintSession(t *testing.T, v *vclock.Virtual, cores int) (*pilot.UnitManager, *pilot.WaveBatcher) {
	t.Helper()
	s := pilot.NewSession(v, kernels.NewRegistry(), pilot.DefaultConfig())
	um := pilot.NewUnitManager(s)
	p, err := pilot.NewPilotManager(s).Submit(pilot.PilotDescription{
		Resource: "sim.stress64k", Cores: cores, Walltime: 100 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitActive()
	um.AddPilot(p)
	return um, pilot.NewWaveBatcher(um)
}

// TestUnitFootprint gates a unit's size and its lifetime allocation, and
// checks that units sharing one description still carry their own
// names and attempts.
func TestUnitFootprint(t *testing.T) {
	var u pilot.ComputeUnit
	if size := unsafe.Sizeof(u); size > maxUnitSize {
		t.Errorf("unsafe.Sizeof(ComputeUnit{}) = %d B, want <= %d", size, maxUnitSize)
	}

	const units = 4096
	shared := &pilot.UnitDescription{Kernel: "misc.sleep", Params: map[string]float64{"seconds": 30}, Cores: 1}
	wave := make([]pilot.WaveUnit, units)
	for i := range wave {
		wave[i] = pilot.WaveUnit{Desc: shared, Name: "task"}
	}
	v := vclock.NewVirtual()
	v.Run(func() {
		um, b := footprintSession(t, v, units)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cus, err := b.SubmitWave(0, wave, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range um.WaitAll(cus) {
			if st != pilot.UnitDone {
				t.Fatalf("unit settled %v, want DONE", st)
			}
		}
		runtime.ReadMemStats(&after)
		perUnit := float64(after.TotalAlloc-before.TotalAlloc) / units
		t.Logf("%.0f B allocated per unit, %.2f allocations per unit",
			perUnit, float64(after.Mallocs-before.Mallocs)/units)
		// The race detector's sync.Pool drops pooled items at random, so
		// the byte count is only exact without it.
		if !raceEnabled && perUnit > maxUnitBytes {
			t.Errorf("%.0f B allocated per unit, want <= %d", perUnit, maxUnitBytes)
		}
	})

	// A retry wave shares one description across attempts: FailOn sees
	// each unit's own attempt, and Desc reports the unit's own name and
	// attempt over the shared description's.
	retry := &pilot.UnitDescription{
		Kernel: "misc.sleep", Params: map[string]float64{"seconds": 1}, Cores: 1,
		Name: "shared", Attempt: 9,
		FailOn: func(attempt int) bool { return attempt < 2 },
	}
	v = vclock.NewVirtual()
	v.Run(func() {
		um, b := footprintSession(t, v, 8)
		cus, err := b.SubmitWave(0, []pilot.WaveUnit{
			{Desc: retry, Name: "a", Attempt: 0},
			{Desc: retry, Name: "b", Attempt: 2},
			{Desc: retry, Name: "c", Attempt: 1},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		um.WaitAll(cus)
		for i, want := range []struct {
			name    string
			attempt int
			st      pilot.UnitState
		}{{"a", 0, pilot.UnitFailed}, {"b", 2, pilot.UnitDone}, {"c", 1, pilot.UnitFailed}} {
			u := cus[i]
			if d := u.Desc(); d.Name != want.name || d.Attempt != want.attempt || d.Kernel != "misc.sleep" {
				t.Errorf("unit %d: Desc() name %q attempt %d kernel %q, want %q %d misc.sleep",
					i, d.Name, d.Attempt, d.Kernel, want.name, want.attempt)
			}
			if u.Name() != want.name {
				t.Errorf("unit %d: Name() = %q, want %q", i, u.Name(), want.name)
			}
			if st := u.State(); st != want.st {
				t.Errorf("unit %s (attempt %d) settled %v, want %v", want.name, want.attempt, st, want.st)
			}
		}
		if retry.Name != "shared" || retry.Attempt != 9 {
			t.Errorf("shared description written: name %q attempt %d", retry.Name, retry.Attempt)
		}
	})
}
