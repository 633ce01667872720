package profile

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"entk/internal/vclock"
)

// layouts enumerates the columnar store and the reference store
// (ref_store_test.go) so the behavioural suite runs against each — the
// reference is only worth keeping if it is continuously proven
// equivalent.
var layouts = []struct {
	name string
	new  func(Clock) *Profiler
}{
	{"columnar", New},
	{"ref", newRefProfiler},
}

// TestRecordConcurrentHammer hammers Record from many goroutines with
// randomized entity fan-in across the stripes, on both layouts, and then
// asserts exact accounting: total and per-entity event counts, and
// per-entity ordering by virtual time (an entity's events must carry
// non-decreasing timestamps — insertion order per stripe plus a monotone
// clock). Run under -race this is the profiler's concurrency gate.
func TestRecordConcurrentHammer(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			const (
				goroutines = 32
				perG       = 1500
				entities   = 64 // spread over all 16 stripes
			)
			v := vclock.NewVirtual()
			p := l.new(v)

			// Pre-intern the vocabulary the way the runtime does; the ids
			// are shared across all recording goroutines.
			eids := make([]EntityID, entities)
			for i := range eids {
				eids[i] = p.Intern(fmt.Sprintf("unit.%06d", i))
			}
			names := []NameID{
				p.InternName("exec_start"),
				p.InternName("exec_stop"),
				p.InternName("state_DONE"),
				p.InternName("new"),
			}

			perEntity := make([]int, entities)
			for g := 0; g < goroutines; g++ {
				rng := rand.New(rand.NewSource(int64(1000 + g)))
				for i := 0; i < perG; i++ {
					perEntity[rng.Intn(entities)]++
				}
			}

			v.Run(func() {
				wg := vclock.NewWaitGroup(v, "hammer")
				for g := 0; g < goroutines; g++ {
					g := g
					wg.Add(1)
					v.Go(func() {
						defer wg.Done()
						// Same seed as the precomputation: the fan-in
						// pattern is randomized but reproducible.
						rng := rand.New(rand.NewSource(int64(1000 + g)))
						for i := 0; i < perG; i++ {
							e := rng.Intn(entities)
							if i%7 == 0 {
								// Exercise the string path too: interned
								// strings must hit the same ids.
								p.Record(fmt.Sprintf("unit.%06d", e), "exec_start")
							} else {
								p.RecordID(eids[e], names[i%len(names)])
							}
							if i%97 == 0 {
								v.Sleep(time.Duration(1+i%5) * time.Millisecond)
							}
						}
					})
				}
				wg.Wait()
			})

			const total = goroutines * perG
			if got := p.EventCount(); got != total {
				t.Fatalf("EventCount = %d, want %d", got, total)
			}
			if got := len(p.Events()); got != total {
				t.Fatalf("len(Events) = %d, want %d", got, total)
			}

			// Per-entity accounting and time ordering.
			gotPer := make(map[string]int)
			lastT := make(map[string]time.Duration)
			for _, e := range p.Events() {
				gotPer[e.Entity]++
				if e.T < lastT[e.Entity] {
					t.Fatalf("entity %s: event at %v after %v — per-entity order broken",
						e.Entity, e.T, lastT[e.Entity])
				}
				lastT[e.Entity] = e.T
			}
			for i, want := range perEntity {
				ent := fmt.Sprintf("unit.%06d", i)
				if gotPer[ent] != want {
					t.Errorf("entity %s: %d events, want %d", ent, gotPer[ent], want)
				}
			}
		})
	}
}

// TestRecordSteadyStateAllocFree pins the columnar layout's headline
// property: once an entity's stripe is warm (inside a chunk, spare
// rotated), Record and RecordID allocate nothing — the event log grows
// only when a chunk fills, and what it stores is pointer-free.
func TestRecordSteadyStateAllocFree(t *testing.T) {
	v := vclock.NewVirtual()
	p := New(v)
	e := p.Intern("unit.000001")
	n := p.InternName("exec_start")

	// Warm up past the chunk-growth ladder (256+512+1024 = 1792 events)
	// so the current chunk has ample headroom for the measured records.
	for i := 0; i < 2048; i++ {
		p.RecordID(e, n)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.RecordID(e, n) }); allocs != 0 {
		t.Errorf("RecordID allocates %.1f objects per op in steady state, want 0", allocs)
	}
	// The string path interns via read-locked map hits: also alloc-free
	// once the strings are known.
	if allocs := testing.AllocsPerRun(100, func() { p.Record("unit.000001", "exec_start") }); allocs != 0 {
		t.Errorf("Record allocates %.1f objects per op in steady state, want 0", allocs)
	}
}

// TestLayoutQueryParity runs an identical recording schedule through both
// layouts and asserts every query — First, Last, Span, SumPairs,
// Entities, FirstID/LastID, EventCount — answers identically. The
// profiler-level complement of the end-to-end TestProfilerLayoutParity.
func TestLayoutQueryParity(t *testing.T) {
	build := func(newP func(Clock) *Profiler) *Profiler {
		v := vclock.NewVirtual()
		p := newP(v)
		v.Run(func() {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				e := rng.Intn(40)
				kind := "unit"
				if e%5 == 0 {
					kind = "pilot"
				}
				name := []string{"exec_start", "exec_stop", "new", "state_DONE"}[rng.Intn(4)]
				p.Record(fmt.Sprintf("%s.%04d", kind, e), name)
				if i%11 == 0 {
					v.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
				}
			}
		})
		return p
	}
	col := build(New)
	ref := build(newRefProfiler)

	if a, b := col.EventCount(), ref.EventCount(); a != b {
		t.Fatalf("EventCount: columnar %d, ref %d", a, b)
	}
	type q2 struct{ prefix, name string }
	for _, q := range []q2{
		{"unit.", "exec_start"}, {"unit.", "exec_stop"}, {"pilot.", "new"},
		{"unit.00", "state_DONE"}, {"", "exec_start"}, {"unit.", "missing"},
	} {
		af, aok := col.First(q.prefix, q.name)
		bf, bok := ref.First(q.prefix, q.name)
		if af != bf || aok != bok {
			t.Errorf("First(%q,%q): columnar (%v,%v), ref (%v,%v)", q.prefix, q.name, af, aok, bf, bok)
		}
		al, aok := col.Last(q.prefix, q.name)
		bl, bok := ref.Last(q.prefix, q.name)
		if al != bl || aok != bok {
			t.Errorf("Last(%q,%q): columnar (%v,%v), ref (%v,%v)", q.prefix, q.name, al, aok, bl, bok)
		}
	}
	if a := col.SumPairs("unit.", "exec_start", "exec_stop"); a != ref.SumPairs("unit.", "exec_start", "exec_stop") {
		t.Errorf("SumPairs diverges: columnar %v, ref %v", a, ref.SumPairs("unit.", "exec_start", "exec_stop"))
	}
	as, aok := col.Span("unit.", "exec_start", "exec_stop")
	bs, bok := ref.Span("unit.", "exec_start", "exec_stop")
	if as != bs || aok != bok {
		t.Errorf("Span diverges: columnar (%v,%v), ref (%v,%v)", as, aok, bs, bok)
	}
	ae := col.Entities("unit.")
	be := ref.Entities("unit.")
	if len(ae) != len(be) {
		t.Fatalf("Entities diverges: columnar %d, ref %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("Entities[%d]: columnar %q, ref %q", i, ae[i], be[i])
		}
	}
	// Exact-entity queries, including an entity with no matching events.
	for _, ent := range []string{"unit.0001", "unit.0039", "pilot.0000"} {
		ec, nc := col.Intern(ent), col.InternName("exec_start")
		er, nr := ref.Intern(ent), ref.InternName("exec_start")
		af, aok := col.FirstID(ec, nc)
		bf, bok := ref.FirstID(er, nr)
		if af != bf || aok != bok {
			t.Errorf("FirstID(%s): columnar (%v,%v), ref (%v,%v)", ent, af, aok, bf, bok)
		}
		al, aok := col.LastID(ec, nc)
		bl, bok := ref.LastID(er, nr)
		if al != bl || aok != bok {
			t.Errorf("LastID(%s): columnar (%v,%v), ref (%v,%v)", ent, al, aok, bl, bok)
		}
	}
}

// TestInternStability asserts intern/lookup/resolve round-trips: the same
// string always yields the same id, ids resolve back to their strings, and
// the two id namespaces (entities, names) are independent.
func TestInternStability(t *testing.T) {
	v := vclock.NewVirtual()
	p := New(v)
	e1 := p.Intern("unit.000001")
	n1 := p.InternName("exec_start")
	if e2 := p.Intern("unit.000001"); e2 != e1 {
		t.Errorf("re-intern changed id: %d then %d", e1, e2)
	}
	if got := p.EntityName(e1); got != "unit.000001" {
		t.Errorf("EntityName = %q", got)
	}
	if got := p.Name(n1); got != "exec_start" {
		t.Errorf("Name = %q", got)
	}
	// Same string in both namespaces must not collide semantically.
	eShared := p.Intern("shared")
	nShared := p.InternName("shared")
	if p.EntityName(eShared) != "shared" || p.Name(nShared) != "shared" {
		t.Error("shared string broken across namespaces")
	}
}
