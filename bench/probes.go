package main

import (
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"entk/internal/kernels"
	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/realtime"
	"entk/internal/vclock"
)

// Probes drive one layer alone through its exported API, so a layer's
// cost per operation is known apart from everything stacked on it. They
// run after the traced repetition, in the same process.

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// vclockProbes measures the virtual clock's park/wake, timers,
// semaphore hand-off and process spawn.
func vclockProbes(e *env, out map[string]float64) {
	procs, sleeps := e.scaled(65536), 8

	// Every process sleeps to the same instants: the stress-1m pattern.
	sleepWake := func(offsets []time.Duration) float64 {
		v := vclock.NewVirtual()
		t0 := time.Now()
		v.Run(func() {
			wg := vclock.NewWaitGroup(v, "probe")
			for p := 0; p < procs; p++ {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for k := 0; k < sleeps; k++ {
						d := time.Second
						if offsets != nil {
							d += offsets[p]
						}
						v.Sleep(d)
					}
				})
			}
			wg.Wait()
		})
		return nsPer(time.Since(t0), procs*sleeps)
	}
	out["vclock.sleep_wake_ns"] = sleepWake(nil)

	// Every process wakes at its own instants: the graph-deep pattern.
	rng := rand.New(rand.NewSource(e.seed))
	offsets := make([]time.Duration, procs)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	out["vclock.sleep_wake_spread_ns"] = sleepWake(offsets)

	{
		n := e.scaled(1 << 17)
		v := vclock.NewVirtual()
		var fired atomic.Int64
		t0 := time.Now()
		v.Run(func() {
			for i := 0; i < n; i++ {
				v.After(time.Duration(1+i%1000)*time.Millisecond, func() { fired.Add(1) })
			}
			v.Sleep(2 * time.Second)
		})
		out["vclock.after_ns"] = nsPer(time.Since(t0), n)
		if int(fired.Load()) != n {
			out["vclock.after_ns"] = 0 // a probe that lost callbacks measured nothing
		}
	}

	{
		// The agent's launcher-slot pattern: many processes, few slots,
		// each held for 0.1 s, sixteen rounds per process.
		n, rounds := e.scaled(4096), 16
		v := vclock.NewVirtual()
		t0 := time.Now()
		v.Run(func() {
			sem := vclock.NewSemaphore(v, "probe slots", 64)
			wg := vclock.NewWaitGroup(v, "probe")
			for p := 0; p < n; p++ {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					for k := 0; k < rounds; k++ {
						sem.Acquire(1)
						v.Sleep(100 * time.Millisecond)
						sem.Release(1)
					}
				})
			}
			wg.Wait()
		})
		out["vclock.sem_handoff_ns"] = nsPer(time.Since(t0), n*rounds)
	}

	{
		n := e.scaled(1 << 18)
		v := vclock.NewVirtual()
		t0 := time.Now()
		v.Run(func() {
			wg := vclock.NewWaitGroup(v, "probe")
			for p := 0; p < n; p++ {
				wg.Add(1)
				v.Go(wg.Done)
			}
			wg.Wait()
		})
		out["vclock.go_ns"] = nsPer(time.Since(t0), n)
	}
}

// tickClock stamps profiler events without a simulation behind it.
type tickClock struct{ t atomic.Int64 }

func (c *tickClock) Now() time.Duration { return time.Duration(c.t.Add(1)) }

// profileProbes measures Record under two writers, then the read side
// (Snapshot, WriteTo, SumPairs) on the trace they wrote.
func profileProbes(e *env, out map[string]float64) error {
	const writers, perEntity = 2, 8
	entities := e.scaled(1 << 19)
	p := profile.New(&tickClock{})
	ids := make([]profile.EntityID, entities)
	for i := range ids {
		ids[i] = p.Intern(fmt.Sprintf("unit.%07d", i))
	}
	names := []profile.NameID{p.InternName("new"), p.InternName("state_SCHEDULING"),
		p.InternName("exec_start"), p.InternName("state_EXECUTING"), p.InternName("exec_stop"),
		p.InternName("state_DONE"), p.InternName("stageout_start"), p.InternName("stageout_stop")}

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < entities; i += writers {
				for _, n := range names[:perEntity] {
					p.RecordID(ids[i], n)
				}
			}
		}()
	}
	wg.Wait()
	events := entities * perEntity
	out["profile.record_ns"] = nsPer(time.Since(t0), events)
	if p.EventCount() != events {
		return fmt.Errorf("bench: profile probe recorded %d events, want %d", p.EventCount(), events)
	}
	mevents := float64(events) / 1e6

	t0 = time.Now()
	snap := p.Snapshot()
	out["profile.snapshot_ms_per_mevent"] = time.Since(t0).Seconds() * 1000 / mevents

	t0 = time.Now()
	n, err := snap.WriteTo(io.Discard)
	if err != nil {
		return fmt.Errorf("bench: profile probe dump: %w", err)
	}
	out["profile.writeto_mb_per_s"] = float64(n) / (1 << 20) / time.Since(t0).Seconds()

	t0 = time.Now()
	busy := snap.SumPairs("unit.", "exec_start", "exec_stop")
	out["profile.sumpairs_ms_per_mevent"] = time.Since(t0).Seconds() * 1000 / mevents
	if busy <= 0 {
		return fmt.Errorf("bench: profile probe SumPairs = %v, want > 0", busy)
	}
	return nil
}

// pilotProbes drives Session + PilotManager + UnitManager with no core
// on top, as workload/ablations.go does: boot one pilot a quarter of
// stress-1m's width and push sixteen pilot-widths of units through it
// in one bulk submission — stress-1m's wave count, so executor
// goroutines are created once and reused fifteen times there as here.
func pilotProbes(e *env, out map[string]float64) error {
	cores := e.scaled(16384)
	run := func(units, coresPer int) (unitUS, submitUS, bootMS float64, waves int, err error) {
		v := vclock.NewVirtual()
		sess := pilot.NewSession(v, kernels.NewRegistry(), pilot.DefaultConfig())
		pm, um := pilot.NewPilotManager(sess), pilot.NewUnitManager(sess)
		batcher := pilot.NewWaveBatcher(um) // the submission path core uses
		descs := make([]pilot.UnitDescription, units)
		params := map[string]float64{"seconds": stressTaskSeconds}
		for i := range descs {
			descs[i] = pilot.UnitDescription{Kernel: "misc.sleep", Params: params, Cores: coresPer, MPI: coresPer > 1}
		}
		v.Run(func() {
			t0 := time.Now()
			var p *pilot.ComputePilot
			p, err = pm.Submit(pilot.PilotDescription{Resource: simMachine, Cores: cores, Walltime: 10000 * time.Hour})
			if err != nil {
				return
			}
			p.WaitActive()
			bootMS = time.Since(t0).Seconds() * 1000
			um.AddPilot(p)

			t0 = time.Now()
			var cus []*pilot.ComputeUnit
			cus, err = batcher.Submit(descs)
			if err != nil {
				return
			}
			submitUS = time.Since(t0).Seconds() * 1e6 / float64(units)
			for _, st := range um.WaitAll(cus) {
				if st != pilot.UnitDone {
					err = fmt.Errorf("bench: pilot probe unit settled %v", st)
					break
				}
			}
			unitUS = time.Since(t0).Seconds() * 1e6 / float64(units)
			waves = um.Waves()
			p.Cancel()
			p.WaitFinal()
		})
		return
	}
	unitUS, submitUS, bootMS, waves, err := run(16*cores, 1)
	if err != nil {
		return err
	}
	out["pilot.unit_us"], out["pilot.submit_us_per_unit"] = unitUS, submitUS
	out["pilot.boot_ms"], out["pilot.waves"] = bootMS, float64(waves)
	mpiUS, _, _, _, err := run(16*cores/4, 4)
	if err != nil {
		return err
	}
	out["pilot.unit_us_mpi4"] = mpiUS
	return nil
}

// realtimeProbes measures one process at a time: through the
// executor's RunUnit, and through os/exec alone.
func realtimeProbes(e *env, out map[string]float64) error {
	n := e.scaled(256)
	dir := filepath.Join(e.scratch, "real-probe")
	ex, err := realtime.New(realtime.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer ex.Close()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		err := ex.RunUnit(pilot.ExecRequest{PilotID: 1, PilotCores: 1, Unit: fmt.Sprintf("probe.%04d", i),
			UnitID: i, Kernel: "misc.sleep", Executable: realExe, Cores: 1})
		if err != nil {
			return fmt.Errorf("bench: realtime probe: %w", err)
		}
	}
	out["realtime.rununit_ms"] = time.Since(t0).Seconds() * 1000 / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if err := exec.Command(realExe).Run(); err != nil {
			return fmt.Errorf("bench: realtime probe: %w", err)
		}
	}
	out["realtime.bare_exec_ms"] = time.Since(t0).Seconds() * 1000 / float64(n)
	return nil
}
