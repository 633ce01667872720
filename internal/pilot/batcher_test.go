package pilot

import (
	"sort"
	"testing"
	"time"

	"entk/internal/vclock"
)

// batcherStreamedWorkload runs three concurrent streamed waves of
// distinct widths through either the batcher's streamed path or the raw
// unit manager's, on a fresh session, and returns each wave's unit exec
// windows in sorted order plus the umgr wave count.
func batcherStreamedWorkload(t *testing.T, batched bool) ([][][2]time.Duration, int) {
	t.Helper()
	v := vclock.NewVirtual()
	s := testSession(t, v)
	um := NewUnitManager(s)
	b := NewWaveBatcher(um)
	widths := []int{3, 5, 9}
	windows := make([][][2]time.Duration, len(widths))
	v.Run(func() {
		_, p := startPilot(t, s, 32)
		um.AddPilot(p)
		wg := vclock.NewWaitGroup(v, "submitters")
		for w, width := range widths {
			w, width := w, width
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				descs := make([]UnitDescription, width)
				for i := range descs {
					descs[i] = sleepUnit("s"+pad2(w, i), float64(1+w))
				}
				var units []*ComputeUnit
				var err error
				if batched {
					units, err = b.SubmitWave(w, waveOf(descs), true)
				} else {
					units, err = um.SubmitStreamed(descs)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, u := range units {
					if st := u.WaitFinal(); st != UnitDone {
						t.Errorf("wave %d unit %s final state %v", w, u.Entity(), st)
					}
					start, stop, ok := u.ExecWindow()
					if !ok {
						t.Errorf("wave %d unit %s never executed", w, u.Entity())
					}
					windows[w] = append(windows[w], [2]time.Duration{start, stop})
				}
			})
		}
		wg.Wait()
		p.Cancel()
		p.WaitFinal()
	})
	for w := range windows {
		sort.Slice(windows[w], func(i, j int) bool {
			if windows[w][i][0] != windows[w][j][0] {
				return windows[w][i][0] < windows[w][j][0]
			}
			return windows[w][i][1] < windows[w][j][1]
		})
	}
	return windows, um.Waves()
}

// TestBatcherStreamedTimelineNeutral gates the streamed leg of the
// batcher: a streamed wave joining the shared creation rounds must not
// perturb the simulated timeline. Each unit still dispatches at its own
// per-unit cost deadline, so every exec window must match the unbatched
// streamed run exactly — only the umgr wave-bracket count may shrink
// (same-instant streamed waves share a round).
func TestBatcherStreamedTimelineNeutral(t *testing.T) {
	batched, batchedWaves := batcherStreamedWorkload(t, true)
	plain, plainWaves := batcherStreamedWorkload(t, false)
	for w := range plain {
		if len(batched[w]) != len(plain[w]) {
			t.Fatalf("wave %d: %d units batched vs %d unbatched", w, len(batched[w]), len(plain[w]))
		}
		for i := range plain[w] {
			if batched[w][i] != plain[w][i] {
				t.Errorf("wave %d unit %d exec window diverges: batched %v, unbatched %v",
					w, i, batched[w][i], plain[w][i])
			}
		}
	}
	if plainWaves != 3 {
		t.Errorf("unbatched run recorded %d umgr waves, want 3", plainWaves)
	}
	if batchedWaves != 1 {
		t.Errorf("batched run recorded %d umgr waves, want 1 (one round per instant)", batchedWaves)
	}
}

// batcherWorkload runs three concurrent bulk waves of distinct widths
// through submit (either the batcher or the raw unit manager) on a
// fresh session, and returns each wave's unit exec windows in sorted
// order plus the umgr wave count.
func batcherWorkload(t *testing.T, batched bool) ([][][2]time.Duration, int) {
	t.Helper()
	v := vclock.NewVirtual()
	s := testSession(t, v)
	um := NewUnitManager(s)
	b := NewWaveBatcher(um)
	widths := []int{3, 5, 9}
	windows := make([][][2]time.Duration, len(widths))
	v.Run(func() {
		_, p := startPilot(t, s, 32)
		um.AddPilot(p)
		wg := vclock.NewWaitGroup(v, "submitters")
		for w, width := range widths {
			w, width := w, width
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				descs := make([]UnitDescription, width)
				for i := range descs {
					descs[i] = sleepUnit("b"+pad2(w, i), float64(1+w))
				}
				var units []*ComputeUnit
				var err error
				if batched {
					units, err = b.Submit(descs)
				} else {
					units, err = um.Submit(descs)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, u := range units {
					if st := u.WaitFinal(); st != UnitDone {
						t.Errorf("wave %d unit %s final state %v", w, u.Entity(), st)
					}
					start, stop, ok := u.ExecWindow()
					if !ok {
						t.Errorf("wave %d unit %s never executed", w, u.Entity())
					}
					windows[w] = append(windows[w], [2]time.Duration{start, stop})
				}
			})
		}
		wg.Wait()
		p.Cancel()
		p.WaitFinal()
	})
	for w := range windows {
		sort.Slice(windows[w], func(i, j int) bool {
			if windows[w][i][0] != windows[w][j][0] {
				return windows[w][i][0] < windows[w][j][0]
			}
			return windows[w][i][1] < windows[w][j][1]
		})
	}
	return windows, um.Waves()
}

// TestBatcherTimelineNeutral is the batcher's core contract: coalescing
// concurrent waves changes the wall-clock shape (fewer umgr waves), not
// the simulated timeline — every unit's exec window must match the
// unbatched run exactly, and each wave's units must dispatch at the
// wave's own client-side-cost deadline.
func TestBatcherTimelineNeutral(t *testing.T) {
	batched, batchedWaves := batcherWorkload(t, true)
	plain, plainWaves := batcherWorkload(t, false)
	for w := range plain {
		if len(batched[w]) != len(plain[w]) {
			t.Fatalf("wave %d: %d units batched vs %d unbatched", w, len(batched[w]), len(plain[w]))
		}
		for i := range plain[w] {
			if batched[w][i] != plain[w][i] {
				t.Errorf("wave %d unit %d exec window diverges: batched %v, unbatched %v",
					w, i, batched[w][i], plain[w][i])
			}
		}
	}
	if plainWaves != 3 {
		t.Errorf("unbatched run recorded %d umgr waves, want 3", plainWaves)
	}
	// The three waves arrive at one instant, so they share one round.
	if batchedWaves != 1 {
		t.Errorf("batched run recorded %d umgr waves, want 1", batchedWaves)
	}
}

// TestBatcherRoundCreatesInRankOrder pins the round's order: waves
// submitted at one instant are created in rank order under one umgr
// bracket, however their submitters were spawned or scheduled — so unit
// ids do not depend on GOMAXPROCS (CI runs this at -cpu 1,2,4).
func TestBatcherRoundCreatesInRankOrder(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	um := NewUnitManager(s)
	b := NewWaveBatcher(um)
	ranks := []int{2, 0, 3, 1}
	waves := make([][]*ComputeUnit, len(ranks))
	v.Run(func() {
		_, p := startPilot(t, s, 32)
		um.AddPilot(p)
		wg := vclock.NewWaitGroup(v, "submitters")
		for w, rank := range ranks {
			w, rank := w, rank
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				descs := []UnitDescription{sleepUnit("r"+pad2(rank, 0), 1), sleepUnit("r"+pad2(rank, 1), 1)}
				units, err := b.SubmitWave(rank, waveOf(descs), w%2 == 1)
				if err != nil {
					t.Error(err)
					return
				}
				waves[w] = units
				for _, u := range units {
					u.WaitFinal()
				}
			})
		}
		wg.Wait()
		p.Cancel()
		p.WaitFinal()
	})
	byRank := make([][]*ComputeUnit, len(ranks))
	for w, rank := range ranks {
		byRank[rank] = waves[w]
	}
	last := -1
	for rank, units := range byRank {
		for _, u := range units {
			if u.ID <= last {
				t.Errorf("rank %d unit %s has id %d after id %d: round not created in rank order", rank, u.Name(), u.ID, last)
			}
			last = u.ID
		}
	}
	if got := um.Waves(); got != 1 {
		t.Errorf("wave count = %d, want 1 (one round per instant)", got)
	}
}

// TestBatcherSingleWaveMatchesSubmit pins the uncontended path: one
// wave through the batcher must behave exactly like UnitManager.Submit
// — same unit order, same dispatch deadline (t + n x UMSubmitPerUnit),
// one wave bracket, one bulk agent submission.
func TestBatcherSingleWaveMatchesSubmit(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	um := NewUnitManager(s)
	b := NewWaveBatcher(um)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um.AddPilot(p)
		t0 := v.Now()
		descs := []UnitDescription{sleepUnit("a.00", 1), sleepUnit("a.01", 2), sleepUnit("a.02", 1)}
		units, err := b.Submit(descs)
		if err != nil {
			t.Fatal(err)
		}
		dispatched := v.Now() - t0
		if want := time.Duration(len(descs)) * s.Cfg.UMSubmitPerUnit; dispatched != want {
			t.Errorf("wave dispatched after %v, want %v", dispatched, want)
		}
		for i, u := range units {
			if u.Name() != descs[i].Name {
				t.Errorf("unit %d = %q, want %q (description order)", i, u.Name(), descs[i].Name)
			}
			if st := u.WaitFinal(); st != UnitDone {
				t.Errorf("unit %s final state %v", u.Name(), st)
			}
		}
		p.Cancel()
		p.WaitFinal()
	})
	if got := um.Waves(); got != 1 {
		t.Errorf("wave count = %d, want 1", got)
	}
}

// TestBatcherValidationFailsWholeWave pins the error contract: a
// malformed description fails its own wave before any unit is created,
// and leaves other waves untouched.
func TestBatcherValidationFailsWholeWave(t *testing.T) {
	v := vclock.NewVirtual()
	s := testSession(t, v)
	um := NewUnitManager(s)
	b := NewWaveBatcher(um)
	v.Run(func() {
		_, p := startPilot(t, s, 8)
		um.AddPilot(p)
		if _, err := b.Submit([]UnitDescription{sleepUnit("ok", 1), {Name: "bad"}}); err == nil {
			t.Error("malformed wave accepted")
		}
		units, err := b.Submit([]UnitDescription{sleepUnit("ok2", 1)})
		if err != nil {
			t.Fatal(err)
		}
		if st := units[0].WaitFinal(); st != UnitDone {
			t.Errorf("follow-up wave unit state %v", st)
		}
		p.Cancel()
		p.WaitFinal()
	})
	if got := um.Waves(); got != 1 {
		t.Errorf("wave count = %d, want 1 (failed wave must not bracket)", got)
	}
}
