package pilot

import "time"

// This file is the unit manager's unbatched intake: one call per wave,
// each creating, charging and dispatching its own units. The product
// submits every wave through the WaveBatcher (batcher.go), which
// coalesces concurrent waves and hands them to Dispatch and
// DispatchStreamed; these paths are kept as the reference the batcher's
// timeline-neutrality tests (batcher_test.go) compare it with, and as
// the direct intake of this package's agent and scheduler tests.

// Submit validates and submits unit descriptions in bulk: the client
// first creates every unit (paying the per-unit submission cost, which is
// what makes toolkit overhead grow with task count), then dispatches the
// whole batch to the pilots' agents — like EnTK building a stage's CU
// descriptions and calling submit_units once. It must be called from a
// registered vclock process.
func (um *UnitManager) Submit(descs []UnitDescription) ([]*ComputeUnit, error) {
	wave := waveOf(descs)
	if err := validate(wave); err != nil {
		return nil, err
	}
	um.beginWave()
	defer um.endWave()
	units := um.createAll(wave, nil)
	// Client-side creation/serialization cost for the whole batch.
	um.sess.V.Charge(time.Duration(len(descs)) * um.sess.Cfg.UMSubmitPerUnit)
	for _, u := range units {
		um.dispatchOne(u)
	}
	return units, nil
}

// SubmitStreamed validates and submits unit descriptions as a stream:
// each unit is created and dispatched to its pilot as soon as its own
// client-side submission cost has elapsed, instead of after the whole
// batch's. Unit i therefore reaches an agent at the same virtual time as
// the i-th of N serialized single-unit Submit calls, which is exactly the
// timeline the ensemble-of-pipelines executor produces with one goroutine
// per pipeline — without the N goroutines. It must be called from a
// registered vclock process.
func (um *UnitManager) SubmitStreamed(descs []UnitDescription) ([]*ComputeUnit, error) {
	wave := waveOf(descs)
	if err := validate(wave); err != nil {
		return nil, err
	}
	um.beginWave()
	defer um.endWave()
	perUnit := um.sess.Cfg.UMSubmitPerUnit
	units := make([]*ComputeUnit, len(wave))
	for i := range wave {
		units[i] = um.create(wave[i], nil)
		// Client-side creation/serialization cost for this one unit.
		um.sess.V.Charge(perUnit)
		um.dispatchOne(units[i])
	}
	return units, nil
}

// SubmitOne is a convenience wrapper for a single description.
func (um *UnitManager) SubmitOne(d UnitDescription) (*ComputeUnit, error) {
	us, err := um.Submit([]UnitDescription{d})
	if err != nil {
		return nil, err
	}
	return us[0], nil
}
