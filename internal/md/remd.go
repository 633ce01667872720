// Package md implements the molecular-science substrate behind the
// paper's workloads: temperature replica exchange (the EE pattern's
// exchange logic), a synthetic MD trajectory generator on a double-well
// potential, and the CoCo analysis of the SAL experiments (PCA-based
// collective coordinates). The SAL experiments' LSDMap analysis is a cost
// model only (internal/kernels).
// The numerics are real; only the force-field evaluation is synthetic.
package md

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// KB is the Boltzmann constant in kcal/(mol*K), the conventional MD unit.
const KB = 0.0019872041

// Replica is one member of a temperature-exchange ensemble.
type Replica struct {
	// ID is stable across exchanges; temperatures move between replicas.
	ID int
	// Temp is the current temperature in Kelvin.
	Temp float64
	// Energy is the latest sampled potential energy in kcal/mol.
	Energy float64
}

// TemperatureLadder returns n temperatures from tmin to tmax spaced
// geometrically, the standard REMD ladder giving near-uniform acceptance
// between neighbours.
func TemperatureLadder(n int, tmin, tmax float64) ([]float64, error) {
	if n < 1 {
		return nil, errors.New("md: ladder needs at least one rung")
	}
	if tmin <= 0 || tmax < tmin {
		return nil, fmt.Errorf("md: invalid temperature range [%g, %g]", tmin, tmax)
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = tmin
		return out, nil
	}
	ratio := math.Pow(tmax/tmin, 1/float64(n-1))
	t := tmin
	for i := range out {
		out[i] = t
		t *= ratio
	}
	return out, nil
}

// Ensemble is a replica-exchange ensemble with a deterministic RNG so
// simulations are reproducible for a given seed.
type Ensemble struct {
	Replicas []*Replica
	rng      *rand.Rand
	// Atoms scales the energy model (extensive quantity).
	Atoms int
	// attempts and accepts track exchange statistics.
	attempts int
	accepts  int
}

// NewEnsemble creates n replicas on a geometric ladder between tmin and
// tmax for a system of the given atom count.
func NewEnsemble(n int, tmin, tmax float64, atoms int, seed int64) (*Ensemble, error) {
	ladder, err := TemperatureLadder(n, tmin, tmax)
	if err != nil {
		return nil, err
	}
	if atoms < 1 {
		return nil, fmt.Errorf("md: ensemble with %d atoms", atoms)
	}
	e := &Ensemble{rng: rand.New(rand.NewSource(seed)), Atoms: atoms}
	for i, t := range ladder {
		e.Replicas = append(e.Replicas, &Replica{ID: i, Temp: t})
	}
	e.SampleEnergies()
	return e, nil
}

// SampleEnergies draws a fresh potential energy for every replica from the
// model E(T) ~ N(E0 + cv*T, sigma(T)): equipartition-style mean growth
// with T and thermal fluctuations growing with T. It stands in for running
// the MD engine for one cycle.
func (e *Ensemble) SampleEnergies() {
	n := float64(e.Atoms)
	for _, r := range e.Replicas {
		mean := -80*n + 3*KB*r.Temp*n // baseline + 3NkT "kinetic-like" term
		sigma := math.Sqrt(3*n) * KB * r.Temp * 10
		r.Energy = mean + e.rng.NormFloat64()*sigma
	}
}

// MetropolisAccept decides a temperature swap between replicas i and j per
// the REMD criterion: Delta = (1/kTi - 1/kTj)(Ej - Ei); accept with
// probability min(1, exp(-Delta)).
func (e *Ensemble) MetropolisAccept(ri, rj *Replica) bool {
	delta := (1/(KB*ri.Temp) - 1/(KB*rj.Temp)) * (rj.Energy - ri.Energy)
	if delta <= 0 {
		return true
	}
	return e.rng.Float64() < math.Exp(-delta)
}

// Swap records one accepted exchange between two replica IDs.
type Swap struct {
	A, B int
}

// ExchangeSweep attempts temperature swaps between ladder neighbours,
// alternating pair parity by cycle as in standard REMD (cycle 0 pairs
// rungs (0,1),(2,3),..., cycle 1 pairs (1,2),(3,4),...). Accepted pairs
// trade temperatures. It returns the accepted swaps.
func (e *Ensemble) ExchangeSweep(cycle int) []Swap {
	// Order replicas by current temperature to find ladder neighbours.
	order := make([]*Replica, len(e.Replicas))
	copy(order, e.Replicas)
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && order[k].Temp < order[k-1].Temp; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	var swaps []Swap
	start := cycle % 2
	for i := start; i+1 < len(order); i += 2 {
		ri, rj := order[i], order[i+1]
		e.attempts++
		if e.MetropolisAccept(ri, rj) {
			e.accepts++
			ri.Temp, rj.Temp = rj.Temp, ri.Temp
			swaps = append(swaps, Swap{A: ri.ID, B: rj.ID})
		}
	}
	return swaps
}

// AcceptanceRatio returns accepted/attempted exchanges so far (0 if none).
func (e *Ensemble) AcceptanceRatio() float64 {
	if e.attempts == 0 {
		return 0
	}
	return float64(e.accepts) / float64(e.attempts)
}

// Temperatures returns the current temperature of each replica by ID.
func (e *Ensemble) Temperatures() []float64 {
	out := make([]float64, len(e.Replicas))
	for _, r := range e.Replicas {
		out[r.ID] = r.Temp
	}
	return out
}
