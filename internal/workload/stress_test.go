package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"entk/internal/profile"
	"entk/internal/vclock"
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

// wallClockFields are the row fields that measure the machine running
// the simulation, not the simulated system; the golden record omits
// them and checkSimColumns ignores them.
var wallClockFields = []string{"WallMS", "UnitsPerSecWall", "wall_ms"}

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
		for _, k := range wallClockFields {
			delete(g, k)
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

// TestStress100kEngineParity runs one 100k-tier point on both vclock
// engines and asserts the simulated columns (TTC decomposition, task
// counts) are byte-identical — the tier-level extension of
// TestEngineReportParity to 100k tasks.
func TestStress100kEngineParity(t *testing.T) {
	skip100k(t)
	sizes := []int{102400}
	handoff, err := Stress100kOn(sizes, vclock.EngineHandoff)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Stress100kOn(sizes, vclock.EngineRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(handoff.SimColumns(), ref.SimColumns()) {
		t.Errorf("sim columns diverge between engines:\nhandoff:\n%s\nref:\n%s",
			handoff.Table(), ref.Table())
	}
	if err := handoff.Check(); err != nil {
		t.Errorf("%v\n%s", err, handoff.Table())
	}
}

// TestStress100kLayoutParity runs the 100k-tier sweep on both profiler
// layouts and asserts the simulated columns and the figure Check verdict
// agree — the stress-tier leg of the layout-parity suite, proving the
// columnar store changes no measured quantity at the scale it was built
// for. The seed layout's columns are pinned by the golden record too.
func TestStress100kLayoutParity(t *testing.T) {
	skip100k(t)
	runWith := func(l profile.Layout) *Stress100kResult {
		var res *Stress100kResult
		err := WithProfLayout(l, func() error {
			var err error
			res, err = Stress100k(nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	columnar := runWith(profile.LayoutColumnar)
	ref := runWith(profile.LayoutRef)
	if !reflect.DeepEqual(columnar.SimColumns(), ref.SimColumns()) {
		t.Errorf("sim columns diverge between profiler layouts:\ncolumnar:\n%s\nref:\n%s",
			columnar.Table(), ref.Table())
	}
	if err := columnar.Check(); err != nil {
		t.Errorf("columnar: %v\n%s", err, columnar.Table())
	}
	if err := ref.Check(); err != nil {
		t.Errorf("ref: %v\n%s", err, ref.Table())
	}
	checkSimColumns(t, "stress_100k_prof_ref", ref.Rows)
}

// TestStress100kPendingQueueParity runs one 100k-tier point on both
// pending-queue implementations and asserts the simulated columns are
// byte-identical — the stress-tier leg of the queue-parity suite,
// proving the segmented queue changes no measured quantity at the scale
// it was built for.
func TestStress100kPendingQueueParity(t *testing.T) {
	skip100k(t)
	sizes := []int{102400}
	runWith := func(ref bool) *Stress100kResult {
		var res *Stress100kResult
		err := WithPendingRef(ref, func() error {
			var err error
			res, err = Stress100k(sizes)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seg := runWith(false)
	fifo := runWith(true)
	if !reflect.DeepEqual(seg.SimColumns(), fifo.SimColumns()) {
		t.Errorf("sim columns diverge between pending queues:\nsegmented:\n%s\nreference:\n%s",
			seg.Table(), fifo.Table())
	}
	if err := seg.Check(); err != nil {
		t.Errorf("segmented: %v\n%s", err, seg.Table())
	}
	if err := fifo.Check(); err != nil {
		t.Errorf("reference: %v\n%s", err, fifo.Table())
	}
}

// TestStressPendingQueueParityFigureChecks is the cheap in-short leg of
// the queue parity: the 10k-tier 512-point rows must agree between the
// segmented queue and the seed FIFO reference up to wall-clock columns.
func TestStressPendingQueueParityFigureChecks(t *testing.T) {
	runWith := func(ref bool) *StressEoPResult {
		var res *StressEoPResult
		err := WithPendingRef(ref, func() error {
			var err error
			res, err = StressEoP([]int{512})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seg := runWith(false)
	fifo := runWith(true)
	for i := range seg.Rows {
		a, b := seg.Rows[i], fifo.Rows[i]
		a.WallMS, b.WallMS = 0, 0
		a.UnitsPerSecWall, b.UnitsPerSecWall = 0, 0
		if a != b {
			t.Errorf("row %d diverges between pending queues:\nsegmented: %+v\nreference: %+v", i, a, b)
		}
	}
	if err := seg.Check(); err != nil {
		t.Errorf("segmented: %v", err)
	}
	if err := fifo.Check(); err != nil {
		t.Errorf("reference: %v", err)
	}
}

// TestStress100kSmoke keeps a half-machine 100k-tier point runnable
// everywhere (both engines, no skips beyond -short): the CI smoke row.
func TestStress100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stress tier skipped in -short mode")
	}
	for _, eng := range []vclock.Engine{vclock.EngineHandoff, vclock.EngineRef} {
		res, err := Stress100kOn([]int{32768}, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("%v: %v\n%s", eng, err, res.Table())
		}
	}
}

// TestStressLayoutParityFigureChecks runs the in-short 10k EoP point on
// both profiler layouts and asserts rows and Check results agree — the
// figure-level layout parity kept cheap enough for the -short tier.
func TestStressLayoutParityFigureChecks(t *testing.T) {
	runWith := func(l profile.Layout) *StressEoPResult {
		var res *StressEoPResult
		err := WithProfLayout(l, func() error {
			var err error
			res, err = StressEoP([]int{512})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	columnar := runWith(profile.LayoutColumnar)
	ref := runWith(profile.LayoutRef)
	for i := range columnar.Rows {
		a, b := columnar.Rows[i], ref.Rows[i]
		a.WallMS, b.WallMS = 0, 0
		a.UnitsPerSecWall, b.UnitsPerSecWall = 0, 0
		if a != b {
			t.Errorf("row %d diverges between layouts:\ncolumnar: %+v\nref: %+v", i, a, b)
		}
	}
	if err := columnar.Check(); err != nil {
		t.Errorf("columnar: %v", err)
	}
	if err := ref.Check(); err != nil {
		t.Errorf("ref: %v", err)
	}
}
