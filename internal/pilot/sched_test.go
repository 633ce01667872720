package pilot

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"entk/internal/vclock"
)

// The scheduler invariant suite: every placement policy (FirstFit,
// BestFit, Backfill) on both implementations (rescan reference, indexed)
// must uphold the allocation invariants — node free cores stay within
// [0, capacity], totals stay consistent, every allocation is fully
// released, non-MPI units never span nodes, MPI units span only when no
// single node fits — and the agent-level queue discipline: FIFO order
// except for the policy's sanctioned overtaking.

// schedCase enumerates the policy x implementation matrix.
type schedCase struct {
	name   string
	pack   Placement
	rescan bool
}

func schedMatrix() []schedCase {
	var out []schedCase
	for _, pack := range []Placement{FirstFit, BestFit, Backfill} {
		for _, rescan := range []bool{false, true} {
			impl := "indexed"
			if rescan {
				impl = "rescan"
			}
			out = append(out, schedCase{
				name:   fmt.Sprintf("%v/%s", pack, impl),
				pack:   pack,
				rescan: rescan,
			})
		}
	}
	return out
}

// newSchedImpl constructs the implementation named by the matrix entry
// directly, bypassing newScheduler's small-layout crossover — the suite's
// test layouts are small, and the indexed implementation must stay
// covered regardless of the crossover constant.
func newSchedImpl(caps []int, pack Placement, rescan bool) scheduler {
	if rescan {
		return newRescanSched(caps, pack)
	}
	return newIndexedSched(caps, pack)
}

// forceRescan makes every scheduler built until restore is called run
// the linear scan, whatever the pilot size: the forced-rescan reference
// leg of the scheduler tests and TestIndexedSchedulerReportParity.
func forceRescan() (restore func()) {
	prev := linearScanMaxNodes
	linearScanMaxNodes = math.MaxInt
	return func() { linearScanMaxNodes = prev }
}

// total returns the allocation's core count.
func (a allocation) total() int {
	n := a.cores
	for _, s := range a.spill {
		n += s.cores
	}
	return n
}

// spans reports whether the allocation crosses node boundaries.
func (a allocation) spans() bool { return len(a.spill) > 0 }

// TestSchedulerCrossover pins newScheduler's adaptive crossover: small
// layouts take the linear scan, large layouts take the index, and
// forceRescan always wins.
func TestSchedulerCrossover(t *testing.T) {
	small := make([]int, linearScanMaxNodes)
	large := make([]int, linearScanMaxNodes+1)
	for i := range small {
		small[i] = 4
	}
	for i := range large {
		large[i] = 4
	}
	if _, ok := newScheduler(small, FirstFit).(*rescanSched); !ok {
		t.Error("small layout did not cross over to the linear scan")
	}
	if _, ok := newScheduler(large, FirstFit).(*indexedSched); !ok {
		t.Error("large layout did not use the index")
	}
	defer forceRescan()()
	if _, ok := newScheduler(large, FirstFit).(*rescanSched); !ok {
		t.Error("forceRescan did not select the linear scan")
	}
}

// checkSchedState asserts the node-state invariants against a capacity
// layout.
func checkSchedState(t *testing.T, s scheduler, caps []int) {
	t.Helper()
	free := s.nodeFree()
	if len(free) != len(caps) {
		t.Fatalf("nodeFree has %d nodes, want %d", len(free), len(caps))
	}
	total, max := 0, 0
	for i, f := range free {
		if f < 0 || f > caps[i] {
			t.Fatalf("node %d free %d out of [0,%d]", i, f, caps[i])
		}
		total += f
		if f > max {
			max = f
		}
	}
	if got := s.freeCores(); got != total {
		t.Fatalf("freeCores() = %d, nodes sum to %d", got, total)
	}
	if got := s.maxNodeFree(); got != max {
		t.Fatalf("maxNodeFree() = %d, nodes max is %d", got, max)
	}
}

// TestSchedulerPlacementInvariants drives every policy/impl combination
// through a deterministic scenario asserting the placement invariants.
func TestSchedulerPlacementInvariants(t *testing.T) {
	caps := []int{4, 4, 4, 4}
	for _, tc := range schedMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			s := newSchedImpl(caps, tc.pack, tc.rescan)
			if got := s.freeCores(); got != 16 {
				t.Fatalf("freeCores = %d, want 16", got)
			}
			checkSchedState(t, s, caps)

			// Non-MPI placements never span, even under fragmentation.
			var allocs []allocation
			for i := 0; i < 5; i++ {
				a, ok := s.tryPlace(3, false)
				if i < 4 != ok { // 4 nodes hold one 3-core unit each
					t.Fatalf("place #%d: ok=%v", i, ok)
				}
				if ok {
					if a.spans() {
						t.Fatalf("non-MPI allocation spans nodes: %+v", a)
					}
					allocs = append(allocs, a)
				}
				checkSchedState(t, s, caps)
			}
			// 4 cores free (1 per node): a 2-core non-MPI unit cannot be
			// placed, but a 4-core MPI unit must span exactly.
			if _, ok := s.tryPlace(2, false); ok {
				t.Fatal("2-core non-MPI unit placed on fragmented nodes")
			}
			maxBefore := s.maxNodeFree()
			mpi, ok := s.tryPlace(4, true)
			if !ok {
				t.Fatal("4-core MPI unit not placed on 4 free cores")
			}
			if !mpi.spans() {
				t.Fatal("MPI allocation did not span fragmented nodes")
			}
			if mpi.total() != 4 {
				t.Fatalf("MPI allocation holds %d cores, want 4", mpi.total())
			}
			if 4 <= maxBefore {
				t.Fatalf("MPI unit spanned although one node had %d free", maxBefore)
			}
			checkSchedState(t, s, caps)
			if s.freeCores() != 0 {
				t.Fatalf("free = %d, want 0", s.freeCores())
			}

			// Full release restores capacity exactly.
			s.release(mpi)
			for _, a := range allocs {
				s.release(a)
			}
			checkSchedState(t, s, caps)
			if s.freeCores() != 16 {
				t.Fatalf("free after full release = %d, want 16", s.freeCores())
			}

			// MPI unit that fits one node must not span.
			a, ok := s.tryPlace(4, true)
			if !ok || a.spans() {
				t.Fatalf("4-core MPI on empty machine: ok=%v spans=%v", ok, a.spans())
			}
			s.release(a)
		})
	}
}

// TestSchedulerImplEquivalence drives the rescan and indexed
// implementations through an identical randomized op sequence (fixed
// seed) and asserts they make identical placement decisions — the
// foundation of the report-parity guarantee.
func TestSchedulerImplEquivalence(t *testing.T) {
	caps := []int{8, 8, 8, 8, 8, 8, 8, 8}
	for _, pack := range []Placement{FirstFit, BestFit, Backfill} {
		t.Run(pack.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			ref := newSchedImpl(caps, pack, true)
			idx := newSchedImpl(caps, pack, false)
			type held struct{ r, x allocation }
			var live []held
			for op := 0; op < 5000; op++ {
				if rng.Intn(3) < 2 { // place-biased mix
					need := 1 + rng.Intn(12)
					mpi := rng.Intn(2) == 0
					ra, rok := ref.tryPlace(need, mpi)
					xa, xok := idx.tryPlace(need, mpi)
					if rok != xok {
						t.Fatalf("op %d: place(%d,mpi=%v) rescan ok=%v indexed ok=%v",
							op, need, mpi, rok, xok)
					}
					if rok {
						if ra.node != xa.node || ra.cores != xa.cores || len(ra.spill) != len(xa.spill) {
							t.Fatalf("op %d: allocations diverge: rescan %+v indexed %+v", op, ra, xa)
						}
						for i := range ra.spill {
							if ra.spill[i] != xa.spill[i] {
								t.Fatalf("op %d: spill diverges: %+v vs %+v", op, ra.spill, xa.spill)
							}
						}
						live = append(live, held{ra, xa})
					}
				} else if len(live) > 0 {
					i := rng.Intn(len(live))
					ref.release(live[i].r)
					idx.release(live[i].x)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				checkSchedState(t, ref, caps)
				checkSchedState(t, idx, caps)
				if ref.freeCores() != idx.freeCores() {
					t.Fatalf("op %d: free diverges %d vs %d", op, ref.freeCores(), idx.freeCores())
				}
			}
			for _, h := range live {
				ref.release(h.r)
				idx.release(h.x)
			}
			if ref.freeCores() != 64 || idx.freeCores() != 64 {
				t.Fatalf("full release: rescan %d indexed %d, want 64", ref.freeCores(), idx.freeCores())
			}
		})
	}
}

// submitDesc is a soak-test shorthand.
func stressUnit(name string, cores int, mpi bool, seconds float64) UnitDescription {
	return UnitDescription{
		Name:   name,
		Kernel: "misc.sleep",
		Params: map[string]float64{"seconds": seconds},
		Cores:  cores,
		MPI:    mpi,
	}
}

// TestAgentSoakAllPolicies is the randomized soak (fixed seed): mixed
// unit sizes, MPI and non-MPI, on a virtual clock, for every policy/impl
// combination. A sampler asserts the free-core bounds while the workload
// churns; afterwards every unit must be DONE and the allocation fully
// drained.
func TestAgentSoakAllPolicies(t *testing.T) {
	for _, tc := range schedMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.Agent = tc.pack
			if tc.rescan {
				t.Cleanup(forceRescan())
			}
			v.Run(func() {
				_, p := startPilot(t, s, 32) // 8 nodes x 4 cores
				um := NewUnitManager(s)
				um.AddPilot(p)
				descs := make([]UnitDescription, 200)
				for i := range descs {
					cores := 1 + rng.Intn(6)
					mpi := cores > 1
					secs := 0.5 + rng.Float64()*3
					descs[i] = stressUnit(fmt.Sprintf("soak%03d", i), cores, mpi, secs)
				}
				units, err := um.Submit(descs)
				if err != nil {
					t.Fatal(err)
				}
				stop := vclock.NewEvent(v, "soak sampler stop")
				v.Go(func() {
					for i := 0; i < 400; i++ {
						if stop.Fired() {
							return
						}
						free := p.agent.freeCores()
						if free < 0 || free > 32 {
							t.Errorf("free cores out of range: %d", free)
							return
						}
						for j, f := range p.agent.nodeFree() {
							if f < 0 || f > 4 {
								t.Errorf("node %d free %d out of [0,4]", j, f)
								return
							}
						}
						v.Sleep(100 * time.Millisecond)
					}
				})
				for i, st := range um.WaitAll(units) {
					if st != UnitDone {
						t.Fatalf("unit %d state %v (err %v)", i, st, units[i].Err())
					}
				}
				stop.Fire()
				p.agent.quiesce().Wait() // the last release follows the last final
				if free := p.agent.freeCores(); free != 32 {
					t.Errorf("free after drain = %d, want 32 (allocation leak)", free)
				}
				p.Cancel()
			})
		})
	}
}

// TestOversizedUnitFailsFastOnSaturatedPilot pins the fatal-rejection
// path: a unit that can never fit the pilot must fail immediately with
// the oversize error even when submitted while the pilot is saturated
// (when no scheduling pass would otherwise run), not hang until the
// pilot's walltime expires.
func TestOversizedUnitFailsFastOnSaturatedPilot(t *testing.T) {
	for _, tc := range schedMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.Agent = tc.pack
			if tc.rescan {
				t.Cleanup(forceRescan())
			}
			v.Run(func() {
				_, p := startPilot(t, s, 8)
				um := NewUnitManager(s)
				um.AddPilot(p)
				// Saturate all 8 cores.
				hog, _ := um.SubmitOne(stressUnit("hog", 8, true, 50))
				v.Sleep(time.Second)
				t0 := v.Now()
				big, _ := um.SubmitOne(stressUnit("big", 9, true, 1))
				if st := big.WaitFinal(); st != UnitFailed {
					t.Fatalf("oversized unit state %v, want FAILED", st)
				}
				if dt := v.Now() - t0; dt > time.Second {
					t.Errorf("oversized unit failed after %v, want immediately", dt)
				}
				if err := big.Err(); err == nil || !strings.Contains(err.Error(), "needs 9 cores") {
					t.Errorf("err = %v, want oversize cause", big.Err())
				}
				wide := stressUnit("toowide", 5, true, 1)
				wide.MPI = false
				u := newUnit(s, wide)
				u.mu.Lock()
				u.pilot = p
				u.mu.Unlock()
				p.agent.submit(u)
				if st := u.WaitFinal(); st != UnitFailed {
					t.Fatalf("too-wide non-MPI unit state %v, want FAILED", st)
				}
				if err := u.Err(); err == nil || !strings.Contains(err.Error(), "node has") {
					t.Errorf("err = %v, want per-node cause", u.Err())
				}
				hog.Cancel()
				p.Cancel()
			})
		})
	}
}

// TestContinuousPoliciesOvertakeBlockedHead asserts FirstFit and BestFit
// keep the seed's continuous-scheduling discipline: a blocked wide head
// does not hold back a small unit that fits.
func TestContinuousPoliciesOvertakeBlockedHead(t *testing.T) {
	for _, pack := range []Placement{FirstFit, BestFit} {
		for _, rescan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/rescan=%v", pack, rescan), func(t *testing.T) {
				v := vclock.NewVirtual()
				s := testSession(t, v)
				s.Cfg.Agent = pack
				if rescan {
					t.Cleanup(forceRescan())
				}
				v.Run(func() {
					_, p := startPilot(t, s, 8)
					um := NewUnitManager(s)
					um.AddPilot(p)
					um.SubmitOne(stressUnit("hog", 6, true, 50))
					v.Sleep(time.Second)
					uw, _ := um.SubmitOne(stressUnit("wide", 8, true, 1))
					us, _ := um.SubmitOne(sleepUnit("small", 1))
					if st := us.WaitFinal(); st != UnitDone {
						t.Fatalf("small state %v", st)
					}
					if v.Now() > 10*time.Second {
						t.Errorf("small waited behind blocked wide head (t=%v)", v.Now())
					}
					if st := uw.WaitFinal(); st != UnitDone {
						t.Fatalf("wide state %v", st)
					}
					p.Cancel()
				})
			})
		}
	}
}

// TestBackfillReservationProtectsHead asserts the Backfill discipline: a
// unit predicted to run past the blocked head's shadow time (and not
// fitting in the spare cores) must NOT overtake — strict FIFO where
// continuous scheduling would let it starve the head.
func TestBackfillReservationProtectsHead(t *testing.T) {
	for _, rescan := range []bool{false, true} {
		t.Run(fmt.Sprintf("rescan=%v", rescan), func(t *testing.T) {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.Agent = Backfill
			if rescan {
				t.Cleanup(forceRescan())
			}
			v.Run(func() {
				_, p := startPilot(t, s, 8)
				um := NewUnitManager(s)
				um.AddPilot(p)
				// Hog 6 cores until ~51s. Head needs all 8: blocked, with
				// shadow time at the hog's completion and zero spare cores
				// (free 2 + hog 6 - head 8).
				um.SubmitOne(stressUnit("hog", 6, true, 50))
				v.Sleep(time.Second)
				uw, _ := um.SubmitOne(stressUnit("wide", 8, true, 1))
				// A 100s 1-core unit would run far past the shadow time:
				// it must not start before the head.
				ul, _ := um.SubmitOne(sleepUnit("laggard", 100))
				if st := uw.WaitFinal(); st != UnitDone {
					t.Fatalf("wide state %v", st)
				}
				wideStart, _, _ := uw.ExecWindow()
				if st := ul.WaitFinal(); st != UnitDone {
					t.Fatalf("laggard state %v", st)
				}
				lagStart, _, _ := ul.ExecWindow()
				if lagStart < wideStart {
					t.Errorf("laggard (start %v) jumped the blocked FIFO head (start %v)",
						lagStart, wideStart)
				}
				p.Cancel()
			})
		})
	}
}

// TestBackfillAllowsHarmlessOvertake asserts the EASY side of the
// discipline: a short unit predicted to finish before the head's shadow
// time backfills immediately, and the head still starts on time.
func TestBackfillAllowsHarmlessOvertake(t *testing.T) {
	for _, rescan := range []bool{false, true} {
		t.Run(fmt.Sprintf("rescan=%v", rescan), func(t *testing.T) {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.Agent = Backfill
			if rescan {
				t.Cleanup(forceRescan())
			}
			v.Run(func() {
				_, p := startPilot(t, s, 8)
				um := NewUnitManager(s)
				um.AddPilot(p)
				um.SubmitOne(stressUnit("hog", 6, true, 50))
				v.Sleep(time.Second)
				uw, _ := um.SubmitOne(stressUnit("wide", 8, true, 1))
				// A 1s unit ends well before the ~51s shadow time: it may
				// jump the blocked head.
				us, _ := um.SubmitOne(sleepUnit("short", 1))
				if st := us.WaitFinal(); st != UnitDone {
					t.Fatalf("short state %v", st)
				}
				if v.Now() > 10*time.Second {
					t.Errorf("short unit did not backfill (done at t=%v)", v.Now())
				}
				if st := uw.WaitFinal(); st != UnitDone {
					t.Fatalf("wide state %v", st)
				}
				wideStart, _, _ := uw.ExecWindow()
				// The head must start as soon as the hog releases (~51s),
				// undelayed by the backfilled unit.
				if wideStart > 55*time.Second {
					t.Errorf("head start %v: backfill delayed the head", wideStart)
				}
				p.Cancel()
			})
		})
	}
}

// TestBackfillSpareCoresOvertake asserts the spare-cores side: a unit
// that fits in the cores the head will not need at its shadow time may
// overtake regardless of its own duration.
func TestBackfillSpareCoresOvertake(t *testing.T) {
	for _, rescan := range []bool{false, true} {
		t.Run(fmt.Sprintf("rescan=%v", rescan), func(t *testing.T) {
			v := vclock.NewVirtual()
			s := testSession(t, v)
			s.Cfg.Agent = Backfill
			if rescan {
				t.Cleanup(forceRescan())
			}
			v.Run(func() {
				_, p := startPilot(t, s, 8)
				um := NewUnitManager(s)
				um.AddPilot(p)
				// Hog 4 cores until ~51s; head needs 6: blocked with
				// shadow at the hog's end and 2 spare cores (4 free + 4
				// hog - 6 head).
				um.SubmitOne(stressUnit("hog", 4, true, 50))
				v.Sleep(time.Second)
				uh, _ := um.SubmitOne(stressUnit("head", 6, true, 1))
				// 2-core long unit fits the spare cores: overtakes even
				// though it runs past the shadow time.
				ul, _ := um.SubmitOne(stressUnit("longslim", 2, true, 100))
				// A second long 2-core unit must NOT also overtake: the
				// first consumed the spare budget, and admitting both
				// would leave only 6 of the head's 6 cores... minus 2 at
				// the shadow time — exactly the collective overrun the
				// reservation exists to prevent.
				u2, _ := um.SubmitOne(stressUnit("longslim2", 2, true, 100))
				v.Sleep(5 * time.Second)
				if st := ul.State(); st != UnitExecuting {
					t.Errorf("long slim unit state %v at t=%v, want EXECUTING (spare cores)", st, v.Now())
				}
				if st := u2.State(); st == UnitExecuting || st.Final() {
					t.Errorf("second long slim state %v at t=%v: spare budget overrun", st, v.Now())
				}
				if st := uh.WaitFinal(); st != UnitDone {
					t.Fatalf("head state %v", st)
				}
				headStart, _, _ := uh.ExecWindow()
				if headStart > 55*time.Second {
					t.Errorf("head start %v: spare-core backfill delayed the head", headStart)
				}
				if st := ul.WaitFinal(); st != UnitDone {
					t.Fatalf("long slim state %v", st)
				}
				if st := u2.WaitFinal(); st != UnitDone {
					t.Fatalf("second long slim state %v", st)
				}
				p.Cancel()
			})
		})
	}
}
