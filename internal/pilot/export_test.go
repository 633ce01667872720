package pilot

import "entk/internal/vclock"

// Hooks for the report-parity tests in package pilot_test, which run
// the full stack against a reference: see forceRescan and
// useFIFOPending.
var (
	ForceRescan    = forceRescan
	UseFIFOPending = useFIFOPending
)

// SubmitWave submits one wave through the batcher and parks the calling
// process until it is dispatched: the blocking form this package's
// batcher tests drive. It returns the units in wave order.
func (b *WaveBatcher) SubmitWave(rank int, wave []WaveUnit, streamed bool) ([]*ComputeUnit, error) {
	ev := vclock.NewEvent(b.um.sess.V, "wave dispatched")
	var units []*ComputeUnit
	if err := b.Enqueue(rank, wave, streamed, nil, func(us []*ComputeUnit) {
		units = us
		ev.Fire()
	}); err != nil {
		return nil, err
	}
	ev.Wait()
	return units, nil
}
