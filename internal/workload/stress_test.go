package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestStressEoPSweep runs the full 10k-pipeline EoP stress sweep and
// verifies its figure checks — the acceptance gate that the indexed
// scheduler sustains 10k+ tasks under go test.
func TestStressEoPSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress tier skipped in -short mode")
	}
	res, err := StressEoP(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "stress_eop", res.Rows)
}

// TestStressEESweep runs the EE weak-scaling stress sweep up to the
// oversubscribed 10240-replica point and verifies its figure checks.
func TestStressEESweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress tier skipped in -short mode")
	}
	res, err := StressEE(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "stress_ee_weak", res.Rows)
}

// TestStressEoPSmall keeps a scaled-down stress point in the -short tier
// so the path stays covered everywhere.
func TestStressEoPSmall(t *testing.T) {
	res, err := StressEoP([]int{512})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
}

// skip100k gates the heavyweight 100k-tier sweeps: they are skipped in
// -short mode like the 10k tier, and under the race detector (whose
// 10-20x slowdown would dominate the whole CI run — the dedicated
// non-race smoke row covers the tier, and the profiler's concurrency is
// gated by its own -race hammer suite).
func skip100k(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("100k tier skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("100k tier skipped under -race (covered by the non-race CI smoke row)")
	}
}

// checkSimColumns compares got — a tier's rows, or a map of its named
// parts — with one section of testdata/sim_columns.golden.json: the
// simulated columns of the full tiers, which every change since the
// tiers were introduced has had to leave untouched. The comparison is
// exact; a mismatch is reported with the path of the column that moved.
func checkSimColumns(t *testing.T, section string, got any) {
	t.Helper()
	raw, err := os.ReadFile("testdata/sim_columns.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]any
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("sim_columns.golden.json: %v", err)
	}
	want, ok := golden[section]
	if !ok {
		t.Fatalf("sim_columns.golden.json has no section %q", section)
	}
	// Through JSON and back, so got has the golden's generic shape;
	// float64 survives the round trip exactly.
	buf, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var gotAny any
	if err := json.Unmarshal(buf, &gotAny); err != nil {
		t.Fatal(err)
	}
	diffSimColumns(t, section, want, gotAny)
}

func diffSimColumns(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %v, golden is an object", path, got)
			return
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s.%s: missing, golden %v", path, k, wv)
				continue
			}
			diffSimColumns(t, path+"."+k, wv, gv)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				t.Errorf("%s.%s: not in the golden record", path, k)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: got %v, golden has %d entries", path, got, len(w))
			return
		}
		for i := range w {
			diffSimColumns(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
		}
	default:
		if want != got {
			t.Errorf("%s: got %v, golden %v", path, got, want)
		}
	}
}

// TestStress100kSweep runs the full 100k-task sweep and verifies its
// TTC-decomposition golden checks — the acceptance gate that the columnar
// profiler sustains 100k+ tasks under go test.
func TestStress100kSweep(t *testing.T) {
	skip100k(t)
	res, err := Stress100k(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
	checkSimColumns(t, "stress_100k", res.Rows)
}

// TestStress100kSmoke keeps a half-machine 100k-tier point runnable
// everywhere (no skips beyond -short): the CI smoke row.
func TestStress100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stress tier skipped in -short mode")
	}
	res, err := Stress100k([]int{32768})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Errorf("%v\n%s", err, res.Table())
	}
}
