// Sim-vs-real accounting parity: the same campaign file executed under
// both modes must tell the same structural story. Real mode cannot be
// bit-reproducible (wall instants vary run to run), so the contract is
// weaker than the golden-trace one but still sharp: identical per-unit
// event names and counts, identical report task/retry/unit counters, and
// wall durations inside a generous tolerance band. Wave/batcher and
// unit-manager entities are excluded — same-instant coalescing is a
// virtual-time artefact the wall clock cannot reproduce (DESIGN.md,
// "realtime").
//
// The other two tests hold real mode to what it is for: its TTC terms
// are the toolkit's measured cost, not the simulation's modelled delays
// slept for real, and a finished run leaves nothing behind in the
// process.

package campaign

import (
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"entk/internal/profile"
)

// loadRealmodeExample parses the quickstart campaign the CLI docs point
// at, so the test pins exactly what examples/realmode demonstrates.
func loadRealmodeExample(t *testing.T) *Campaign {
	t.Helper()
	f, err := os.Open("../../examples/realmode/campaign.json")
	if err != nil {
		t.Fatalf("open example: %v", err)
	}
	defer f.Close()
	c, err := Parse(f)
	if err != nil {
		t.Fatalf("parse example: %v", err)
	}
	return c
}

func TestRealModeAccountingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real mode sleeps on the wall clock")
	}
	sim, err := Run(loadRealmodeExample(t), Options{})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	real, err := Run(loadRealmodeExample(t), Options{Mode: ModeReal, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("real run: %v", err)
	}

	// Per-unit event structure: same unit entities, same event names and
	// counts on each, same terminal event. The whole stack above the
	// exec seam is shared, so any divergence here means real mode grew
	// its own code path. Comparison is by sorted name multiset: events
	// sim stamps at one instant (sorted alphabetically within it) spread
	// over distinct wall instants in real mode, so intra-instant order
	// is the one structural property that cannot carry across.
	simEvs := entityEvents(sim.Prof, "unit.")
	realEvs := entityEvents(real.Prof, "unit.")
	if len(simEvs) == 0 {
		t.Fatal("sim trace has no unit entities")
	}
	if len(simEvs) != len(realEvs) {
		t.Fatalf("unit entity count: sim %d, real %d", len(simEvs), len(realEvs))
	}
	for ent, sevs := range simEvs {
		revs, ok := realEvs[ent]
		if !ok {
			t.Errorf("entity %s: present in sim, absent in real", ent)
			continue
		}
		sn := eventNames(sevs)
		rn := eventNames(revs)
		if sn != rn {
			t.Errorf("entity %s events:\n  sim:  %s\n  real: %s", ent, sn, rn)
		}
		if last(sevs) != last(revs) {
			t.Errorf("entity %s terminal event: sim %q, real %q", ent, last(sevs), last(revs))
		}
	}

	// Report counters: structurally identical tables.
	sc, rc := sim.Campaign, real.Campaign
	if sc == nil || rc == nil {
		t.Fatal("missing campaign report")
	}
	if sc.Campaign.Tasks != rc.Campaign.Tasks || sc.Campaign.Retries != rc.Campaign.Retries {
		t.Errorf("campaign counters: sim tasks=%d retries=%d, real tasks=%d retries=%d",
			sc.Campaign.Tasks, sc.Campaign.Retries, rc.Campaign.Tasks, rc.Campaign.Retries)
	}
	if len(sc.Pipelines) != len(rc.Pipelines) {
		t.Fatalf("pipeline rows: sim %d, real %d", len(sc.Pipelines), len(rc.Pipelines))
	}
	for i := range sc.Pipelines {
		if sc.Pipelines[i].Tasks != rc.Pipelines[i].Tasks {
			t.Errorf("pipeline %d tasks: sim %d, real %d",
				i, sc.Pipelines[i].Tasks, rc.Pipelines[i].Tasks)
		}
	}
	if len(sc.Pilots) != len(rc.Pilots) {
		t.Fatalf("pilot rows: sim %d, real %d", len(sc.Pilots), len(rc.Pilots))
	}
	for i := range sc.Pilots {
		if sc.Pilots[i].Units != rc.Pilots[i].Units {
			t.Errorf("pilot %d units: sim %d, real %d",
				i, sc.Pilots[i].Units, rc.Pilots[i].Units)
		}
	}

	// Wall durations: the example's longest chain is a 0.2s exec stage
	// followed by a fast echo stage, so real TTC must be at least the
	// dominant sleep and — with lots of headroom for slow CI — well
	// under a minute. Sim TTC stays the bit-exact modelled 0.40s.
	if got := rc.Campaign.TTC; got < 180*time.Millisecond || got > time.Minute {
		t.Errorf("real TTC %v outside [180ms, 1m]", got)
	}
	if got := sc.Campaign.TTC; got != 400*time.Millisecond {
		t.Errorf("sim TTC %v, want the modelled 400ms", got)
	}
}

// eventNames renders one entity's events as a sorted, comparable name
// multiset — instants differ across modes by design.
func eventNames(evs []profile.Event) string {
	names := make([]string, len(evs))
	for i, ev := range evs {
		names[i] = ev.Name
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// last returns the entity's final event name in (T, Name) order.
func last(evs []profile.Event) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[len(evs)-1].Name
}

// trueCampaign is n x /bin/true in one stage on a two-core local pilot
// with an hour of walltime: no work at all, so whatever a real run takes
// is the toolkit.
func trueCampaign(t *testing.T, n int) *Campaign {
	t.Helper()
	if testing.Short() {
		t.Skip("real mode runs on the wall clock")
	}
	if _, err := os.Stat("/bin/true"); err != nil {
		t.Skip(err)
	}
	c := &Campaign{
		Resources: []Pilot{{Resource: "local.localhost", Cores: 2, WalltimeMin: 60}},
		Pipelines: []Pipeline{{Name: "p", Stages: []Stage{{Name: "s", Tasks: []Task{{
			Name: "true", Count: n,
			Kernel: Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": 0.001}, Executable: "/bin/true"},
		}}}}}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRealModeOverheadIsMeasured: on local.localhost the simulation
// models 0.5 s of client-side submission for 50 units, 1 s of toolkit
// initialisation and 1 s of agent boot. A real run does that work, so it
// must report what the work cost — milliseconds — not sleep the model on
// top of it.
func TestRealModeOverheadIsMeasured(t *testing.T) {
	res, err := Run(trueCampaign(t, 50), Options{Mode: ModeReal, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Campaign.Campaign
	if rep.Tasks != 50 || rep.Retries != 0 {
		t.Fatalf("tasks=%d retries=%d, want 50 and 0", rep.Tasks, rep.Retries)
	}
	for _, term := range []struct {
		name string
		got  time.Duration
	}{
		{"PatternOverhead", rep.PatternOverhead},
		{"CoreOverhead", rep.CoreOverhead},
		{"AgentStartup", rep.AgentStartup},
	} {
		if term.got >= 250*time.Millisecond {
			t.Errorf("%s = %v: a modelled delay was slept, want measured cost under 250ms", term.name, term.got)
		}
	}
	if rep.TTC >= 2*time.Second {
		t.Errorf("TTC = %v for 50 x /bin/true, want under 2s", rep.TTC)
	}
}

// TestRealModeNoLeak: back-to-back real-mode runs in one process. The
// pilot's hour of walltime is a guard armed on the wall clock; unless it
// is disarmed when the pilot ends it pins the run's whole session and,
// as a sleeping goroutine, shows in the goroutine count.
func TestRealModeNoLeak(t *testing.T) {
	c := trueCampaign(t, 20)
	run := func() {
		if _, err := Run(c, Options{Mode: ModeReal, Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	// settled reads the goroutine count and live heap once the run's
	// last goroutines have wound down.
	settled := func(wantGoroutines int) (int, uint64) {
		var n int
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if n = liveGoroutines(); n <= wantGoroutines || time.Now().After(deadline) {
				break
			}
		}
		runtime.GC()
		runtime.GC() // finalizers of the first cycle (os.File, exec.Cmd) free in the second
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return n, ms.HeapAlloc
	}

	// The previous test's goroutine can still be on its way out when this
	// test starts: take the starting count once it has held still.
	g0 := liveGoroutines()
	for deadline, still := time.Now().Add(2*time.Second), 0; still < 10 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if n := liveGoroutines(); n != g0 {
			g0, still = n, 0
		} else {
			still++
		}
	}
	run()
	_, heap1 := settled(g0)
	for i := 0; i < 5; i++ {
		run()
	}
	g6, heap6 := settled(g0)
	if g6 != g0 {
		t.Errorf("goroutines: %d before the first run, %d after the sixth", g0, g6)
	}
	if grown := int64(heap6) - int64(heap1); grown > 64<<10 {
		t.Errorf("live heap grew %d KB between the first and the sixth run, want at most 64 KB", grown>>10)
	}
}

// liveGoroutines counts the goroutines that have not begun to exit. A
// finished test's goroutine can still be on its way out (its top frame
// runtime.goexit1) when the next test starts; it holds nothing, so a
// count taken then must not include it.
func liveGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if lines := strings.SplitN(g, "\n", 3); len(lines) < 2 || !strings.HasPrefix(lines[1], "runtime.goexit1(") {
			live++
		}
	}
	return live
}
