package workload

import (
	"bytes"
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
	checkSimColumns(t, "stress_100k_mixed", append(res.Pipelines, res.Campaign))
}

// TestStress100kMixedSmoke keeps the scaled-down campaign in every tier
// (including -short and -race).
func TestStress100kMixedSmoke(t *testing.T) {
	res, err := Stress100kMixed(stress100kMixedSmokePlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
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
