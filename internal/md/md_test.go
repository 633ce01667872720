package md

import (
	"math"
	"testing"
	"testing/quick"

	"entk/internal/linalg"
)

func TestTemperatureLadder(t *testing.T) {
	l, err := TemperatureLadder(4, 300, 2400)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{300, 600, 1200, 2400}
	for i := range want {
		if math.Abs(l[i]-want[i]) > 1e-9 {
			t.Errorf("ladder[%d] = %v, want %v", i, l[i], want[i])
		}
	}
	if single, err := TemperatureLadder(1, 300, 400); err != nil || single[0] != 300 {
		t.Errorf("single-rung ladder = %v, %v", single, err)
	}
	for _, bad := range []struct {
		n          int
		tmin, tmax float64
	}{{0, 300, 400}, {3, -1, 400}, {3, 400, 300}} {
		if _, err := TemperatureLadder(bad.n, bad.tmin, bad.tmax); err == nil {
			t.Errorf("ladder(%v) accepted", bad)
		}
	}
}

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(4, 300, 600, 0, 1); err == nil {
		t.Error("zero atoms accepted")
	}
	if _, err := NewEnsemble(0, 300, 600, 100, 1); err == nil {
		t.Error("zero replicas accepted")
	}
}

func TestEnsembleDeterministicPerSeed(t *testing.T) {
	a, _ := NewEnsemble(8, 300, 600, 2881, 42)
	b, _ := NewEnsemble(8, 300, 600, 2881, 42)
	for i := range a.Replicas {
		if a.Replicas[i].Energy != b.Replicas[i].Energy {
			t.Fatal("same seed produced different energies")
		}
	}
	c, _ := NewEnsemble(8, 300, 600, 2881, 43)
	same := true
	for i := range a.Replicas {
		if a.Replicas[i].Energy != c.Replicas[i].Energy {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical energies")
	}
}

func TestMetropolisAlwaysAcceptsFavourable(t *testing.T) {
	e, _ := NewEnsemble(2, 300, 600, 100, 1)
	cold, hot := e.Replicas[0], e.Replicas[1]
	// Hot replica found a lower energy than cold: delta <= 0, always swap.
	cold.Energy = 0
	hot.Energy = -1000
	for i := 0; i < 50; i++ {
		if !e.MetropolisAccept(cold, hot) {
			t.Fatal("favourable swap rejected")
		}
	}
}

func TestExchangeSweepSwapsTemperaturesNotIDs(t *testing.T) {
	e, _ := NewEnsemble(8, 300, 600, 2881, 7)
	ladder := e.Temperatures()
	var total int
	for cycle := 0; cycle < 50; cycle++ {
		e.SampleEnergies()
		total += len(e.ExchangeSweep(cycle))
		// Multiset of temperatures is invariant.
		got := e.Temperatures()
		sorted := append([]float64(nil), got...)
		ref := append([]float64(nil), ladder...)
		for i := 1; i < len(sorted); i++ {
			for k := i; k > 0 && sorted[k] < sorted[k-1]; k-- {
				sorted[k], sorted[k-1] = sorted[k-1], sorted[k]
			}
		}
		for i := range ref {
			if math.Abs(sorted[i]-ref[i]) > 1e-9 {
				t.Fatalf("cycle %d: temperature multiset changed", cycle)
			}
		}
	}
	if total == 0 {
		t.Fatal("no exchange accepted in 50 sweeps (acceptance model broken)")
	}
	ar := e.AcceptanceRatio()
	if ar <= 0 || ar > 1 {
		t.Fatalf("acceptance ratio %v out of (0,1]", ar)
	}
}

func TestAcceptanceRatioZeroBeforeAttempts(t *testing.T) {
	e, _ := NewEnsemble(4, 300, 600, 100, 1)
	if e.AcceptanceRatio() != 0 {
		t.Error("acceptance ratio nonzero before any sweep")
	}
}

func TestTrajectoryShapeAndValidation(t *testing.T) {
	sys := AlanineDipeptide
	start := make([]float64, sys.Dim)
	start[0] = -1
	tr, err := Trajectory(sys, start, 100, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 100 || tr.Cols != sys.Dim {
		t.Fatalf("trajectory %dx%d, want 100x%d", tr.Rows, tr.Cols, sys.Dim)
	}
	if _, err := Trajectory(sys, start, 0, 300, 1); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := Trajectory(sys, start, 10, -5, 1); err == nil {
		t.Error("negative temperature accepted")
	}
	if _, err := Trajectory(sys, []float64{1}, 10, 300, 1); err == nil {
		t.Error("wrong-dim start accepted")
	}
}

func TestTrajectoryColdStaysInBasin(t *testing.T) {
	sys := AlanineDipeptide
	start := []float64{-1, 0, 0}
	tr, err := Trajectory(sys, start, 2000, 30, 5) // very cold
	if err != nil {
		t.Fatal(err)
	}
	left, right := BasinFractions(tr)
	if left < 0.95 {
		t.Errorf("cold trajectory escaped its basin: left=%v right=%v", left, right)
	}
}

func TestTrajectoryHotCrossesBarrier(t *testing.T) {
	sys := AlanineDipeptide
	start := []float64{-1, 0, 0}
	tr, err := Trajectory(sys, start, 5000, 1200, 5) // hot
	if err != nil {
		t.Fatal(err)
	}
	left, right := BasinFractions(tr)
	if left == 0 || right == 0 {
		t.Errorf("hot trajectory never crossed: left=%v right=%v", left, right)
	}
}

func TestConcat(t *testing.T) {
	a := linalg.NewMatrix(2, 3)
	b := linalg.NewMatrix(3, 3)
	b.Set(2, 2, 9)
	c, err := Concat([]*linalg.Matrix{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 5 || c.Cols != 3 || c.At(4, 2) != 9 {
		t.Fatalf("concat %dx%d, at(4,2)=%v", c.Rows, c.Cols, c.At(4, 2))
	}
	if _, err := Concat(nil); err == nil {
		t.Error("empty concat accepted")
	}
	d := linalg.NewMatrix(1, 2)
	if _, err := Concat([]*linalg.Matrix{a, d}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestBasinFractionsEmpty(t *testing.T) {
	l, r := BasinFractions(&linalg.Matrix{Rows: 0, Cols: 3})
	if l != 0 || r != 0 {
		t.Error("empty frames gave nonzero fractions")
	}
}

func TestCoCoFindsDominantDirection(t *testing.T) {
	// Points spread along the first axis only: PC1 must be ±e1 and the
	// new start points must extend beyond the sampled extremes.
	n := 50
	frames := linalg.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		frames.Set(i, 0, float64(i)/float64(n-1)*4-2) // [-2, 2]
		frames.Set(i, 1, 0.01*float64(i%3))
	}
	res, err := CoCo(frames, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := res.Components[0]
	if math.Abs(math.Abs(pc[0])-1) > 1e-6 {
		t.Fatalf("PC1 = %v, want ±e1", pc)
	}
	if len(res.StartPoints) != 2 {
		t.Fatalf("%d start points, want 2", len(res.StartPoints))
	}
	// One point beyond +2, one beyond -2 along x.
	var hi, lo bool
	for _, p := range res.StartPoints {
		if p[0] > 2 {
			hi = true
		}
		if p[0] < -2 {
			lo = true
		}
	}
	if !hi || !lo {
		t.Fatalf("start points %v do not extend both extremes", res.StartPoints)
	}
}

func TestCoCoValidation(t *testing.T) {
	frames := linalg.NewMatrix(10, 3)
	if _, err := CoCo(frames, 0, 1); err == nil {
		t.Error("zero PCs accepted")
	}
	if _, err := CoCo(frames, 4, 1); err == nil {
		t.Error("too many PCs accepted")
	}
	if _, err := CoCo(frames, 1, 0); err == nil {
		t.Error("zero points accepted")
	}
	if _, err := CoCo(linalg.NewMatrix(1, 3), 1, 1); err == nil {
		t.Error("single frame accepted")
	}
}

// Property: Metropolis acceptance respects detailed-balance symmetry: a
// swap that lowers "effective action" is always accepted, and acceptance
// is monotone in the energy gap sign.
func TestPropertyMetropolisFavourable(t *testing.T) {
	f := func(seed int64, gap uint16) bool {
		e, err := NewEnsemble(2, 300, 600, 100, seed)
		if err != nil {
			return false
		}
		cold, hot := e.Replicas[0], e.Replicas[1]
		cold.Energy = 100
		hot.Energy = cold.Energy - float64(gap) // hot found lower energy
		return e.MetropolisAccept(cold, hot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: trajectories are reproducible per seed.
func TestPropertyTrajectoryDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		start := []float64{-1, 0, 0}
		a, err1 := Trajectory(AlanineDipeptide, start, 50, 300, seed)
		b, err2 := Trajectory(AlanineDipeptide, start, 50, 300, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
