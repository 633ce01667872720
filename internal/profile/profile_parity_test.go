package profile_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"entk"
	"entk/internal/profile"
)

// layoutInputs are the sizes of the layout-parity workload: a
// single-stage ensemble on one pilot. The 102,400-unit input is the 100k
// stress tier's oversubscribed point, the scale the columnar layout was
// built for.
var layoutInputs = []struct {
	units   int
	machine string
	cores   int
	seconds float64
	bulk    bool
	large   bool // skipped under -short and -race
}{
	{units: 2048, machine: "xsede.stampede", cores: 1024, seconds: 5},
	{units: 102400, machine: "sim.stress64k", cores: 65536, seconds: 30, bulk: true, large: true},
}

// TestProfilerLayoutParity is the columnar-profiler regression gate: the
// interned columnar event layout must be a memory/wall-time optimisation
// only. A real session's trace is loaded into the seed string-backed
// reference store (ref_store_test.go) through WriteTo/ReadFrom, and the
// two profilers must answer every query the report and assertion layers
// ask identically: the per-pilot queue wait (FirstID), Count, First,
// Last, Span and SumPairs over every entity prefix and event name,
// Entities, and the per-entity event sequences behind golden traces.
func TestProfilerLayoutParity(t *testing.T) {
	for _, in := range layoutInputs {
		t.Run(fmt.Sprint(in.units), func(t *testing.T) {
			if in.large && (testing.Short() || raceEnabled) {
				t.Skip("100k-unit leg skipped under -short and -race")
			}
			v := entk.NewClock()
			h, err := entk.NewResourceHandle(in.machine, in.cores, 10000*time.Hour, entk.Config{Clock: v})
			if err != nil {
				t.Fatal(err)
			}
			kernel := &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": in.seconds}}
			var rep *entk.Report
			v.Run(func() {
				rep, err = h.Execute(&entk.EnsembleOfPipelines{
					Pipelines:   in.units,
					Stages:      1,
					BulkStages:  in.bulk,
					StageKernel: func(int, int) *entk.Kernel { return kernel },
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			// Guard against the vacuous pass: the workload must have run.
			if rep.Tasks != in.units || rep.TTC <= 0 || rep.QueueWait <= 0 {
				t.Fatalf("parity workload did not run: tasks=%d ttc=%v queueWait=%v",
					rep.Tasks, rep.TTC, rep.QueueWait)
			}

			col := h.Session().Prof
			var buf bytes.Buffer
			if _, err := col.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			ref := profile.NewRefProfiler(v)
			if _, err := ref.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			compareQueries(t, col, ref)
		})
	}
}

// compareQueries asserts ref answers every query exactly as col does.
func compareQueries(t *testing.T, col, ref *profile.Profiler) {
	t.Helper()
	if a, b := col.EventCount(), ref.EventCount(); a != b {
		t.Fatalf("EventCount: columnar %d, ref %d", a, b)
	}
	a, b := entitySequences(col), entitySequences(ref)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-entity event sequences diverge")
	}

	// The report layer's query: a pilot's queue wait is the gap between
	// its first submit and first job_running, asked by pre-interned id.
	// ReadFrom reproduces the ids, so col's ids address ref too.
	submit, running := col.InternName("submit"), col.InternName("job_running")
	for _, e := range col.Entities("pilot.") {
		id := col.Intern(e)
		for _, n := range []profile.NameID{submit, running} {
			at, ok := col.FirstID(id, n)
			bt, bok := ref.FirstID(id, n)
			if at != bt || ok != bok {
				t.Errorf("FirstID(%s, %s): columnar (%v,%v), ref (%v,%v)", e, col.Name(n), at, ok, bt, bok)
			}
			at, ok = col.LastID(id, n)
			bt, bok = ref.LastID(id, n)
			if at != bt || ok != bok {
				t.Errorf("LastID(%s, %s): columnar (%v,%v), ref (%v,%v)", e, col.Name(n), at, ok, bt, bok)
			}
		}
	}

	// The assertion and report layers' prefix queries, over the unit and
	// pilot lifecycle and every entity family.
	for _, prefix := range []string{"", "unit.", "pilot.", "pattern"} {
		if a, b := col.Entities(prefix), ref.Entities(prefix); !reflect.DeepEqual(a, b) {
			t.Errorf("Entities(%q): columnar %d, ref %d", prefix, len(a), len(b))
		}
		for _, name := range []string{"submit", "job_running", "umgr_bound", "exec_start", "exec_stop", "state_DONE"} {
			if a, b := col.Count(prefix, name), ref.Count(prefix, name); a != b {
				t.Errorf("Count(%q,%q): columnar %d, ref %d", prefix, name, a, b)
			}
			at, ok := col.First(prefix, name)
			bt, bok := ref.First(prefix, name)
			if at != bt || ok != bok {
				t.Errorf("First(%q,%q): columnar (%v,%v), ref (%v,%v)", prefix, name, at, ok, bt, bok)
			}
			at, ok = col.Last(prefix, name)
			bt, bok = ref.Last(prefix, name)
			if at != bt || ok != bok {
				t.Errorf("Last(%q,%q): columnar (%v,%v), ref (%v,%v)", prefix, name, at, ok, bt, bok)
			}
		}
		for _, pair := range [][2]string{{"exec_start", "exec_stop"}, {"submit_start", "submit_stop"}, {"submit", "job_running"}} {
			at, ok := col.Span(prefix, pair[0], pair[1])
			bt, bok := ref.Span(prefix, pair[0], pair[1])
			if at != bt || ok != bok {
				t.Errorf("Span(%q,%v): columnar (%v,%v), ref (%v,%v)", prefix, pair, at, ok, bt, bok)
			}
			if a, b := col.SumPairs(prefix, pair[0], pair[1]), ref.SumPairs(prefix, pair[0], pair[1]); a != b {
				t.Errorf("SumPairs(%q,%v): columnar %v, ref %v", prefix, pair, a, b)
			}
		}
	}
}

// entitySequences groups a profiler's events by entity in insertion
// order — the order both stores preserve per entity.
func entitySequences(p *profile.Profiler) map[string][]profile.Event {
	out := map[string][]profile.Event{}
	for _, ev := range p.Events() {
		out[ev.Entity] = append(out[ev.Entity], ev)
	}
	return out
}
