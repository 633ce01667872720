package workload

import (
	"bytes"
	"reflect"
	"testing"

	"entk/internal/profile"
	"entk/internal/vclock"
)

// TestStress100kMixedSweep runs the full mixed campaign — 100352 tasks
// across three heterogeneous concurrent pipelines — and verifies its
// golden TTC-decomposition checks.
func TestStress100kMixedSweep(t *testing.T) {
	skip100k(t)
	res, err := Stress100kMixed(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "stress_100k_mixed", res.SimColumns())
}

// TestStress100kMixedEngineParity asserts the campaign's simulated
// columns are byte-identical across vclock engines — the acceptance
// gate that a heterogeneous concurrent campaign at 100k scale is still
// a deterministic simulation.
func TestStress100kMixedEngineParity(t *testing.T) {
	skip100k(t)
	a, err := Stress100kMixedOn(nil, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stress100kMixedOn(nil, vclock.EngineRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.SimColumns(), b.SimColumns()) {
		t.Errorf("mixed campaign sim columns diverge across engines:\nhandoff:\n%s\nref:\n%s",
			a.Table(), b.Table())
	}
}

// TestStress100kMixedSmoke keeps the scaled-down campaign in every tier
// (including -short and -race) on both engines.
func TestStress100kMixedSmoke(t *testing.T) {
	for _, eng := range []vclock.Engine{vclock.EngineHandoff, vclock.EngineRef} {
		res, err := Stress100kMixedOn(stress100kMixedSmokePlan, eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("engine %v: %v\n%s", eng, err, res.Table())
		}
	}
}

// TestStress100kMixedLayoutParity runs the smoke campaign on the seed
// profiler layout and requires identical simulated columns — the mixed
// tier's analogue of TestStress100kLayoutParity.
func TestStress100kMixedLayoutParity(t *testing.T) {
	base, err := Stress100kMixedOn(stress100kMixedSmokePlan, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Stress100kMixedResult
	err = WithProfLayout(profile.LayoutRef, func() error {
		var err error
		ref, err = Stress100kMixedOn(stress100kMixedSmokePlan, vclock.EngineHandoff)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.SimColumns(), ref.SimColumns()) {
		t.Errorf("mixed campaign sim columns diverge across profiler layouts:\ncolumnar:\n%s\nref:\n%s",
			base.Table(), ref.Table())
	}
}

// TestProfileTrace round-trips the unit-throughput workload's session
// trace through the binary dump format.
func TestProfileTrace(t *testing.T) {
	var buf bytes.Buffer
	events, n, err := ProfileTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || n != int64(buf.Len()) {
		t.Fatalf("trace wrote %d events / %d bytes (buffer %d)", events, n, buf.Len())
	}
	p := profile.New(vclock.NewVirtual())
	if _, err := p.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if p.EventCount() != events {
		t.Errorf("reloaded %d events, want %d", p.EventCount(), events)
	}
	// The trace must contain the full unit lifecycle for every task.
	if got := len(p.Entities("unit.")); got != throughputUnits {
		t.Errorf("trace has %d unit entities, want %d", got, throughputUnits)
	}
	if _, ok := p.First("unit.", "exec_start"); !ok {
		t.Error("trace missing exec_start events")
	}
	if sum := p.SumPairs("unit.", "exec_start", "exec_stop"); sum <= 0 {
		t.Error("trace busy time not reconstructible")
	}
}
