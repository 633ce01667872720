package profile

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"entk/internal/vclock"
)

// buildDumpFixture records a randomized but seeded event population on
// a profiler from newP: a fixed vocabulary over a few hundred entities with
// out-of-order interning, so the dump has to preserve id allocation
// order, not just content.
func buildDumpFixture(newP func(Clock) *Profiler) *Profiler {
	v := vclock.NewVirtual()
	p := newP(v)
	rng := rand.New(rand.NewSource(42))
	names := []string{"exec_start", "exec_stop", "state_DONE", "stagein_start", "stagein_stop"}
	nids := make([]NameID, len(names))
	for i, s := range names {
		nids[i] = p.InternName(s)
	}
	var eids []EntityID
	for i := 0; i < 200; i++ {
		eids = append(eids, p.Intern("unit."+strings.Repeat("0", i%3)+string(rune('a'+i%26))+itoa(i)))
	}
	eids = append(eids, p.Intern("pattern"), p.Intern("core"))
	v.Run(func() {
		for i := 0; i < 5000; i++ {
			v.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			p.RecordID(eids[rng.Intn(len(eids))], nids[rng.Intn(len(nids))])
		}
	})
	return p
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// sortedEvents is the layout-independent view: per-entity order is
// preserved by both stores, but cross-entity stripe order is not
// meaningful, so comparisons sort.
func sortedEvents(p *Profiler) []Event {
	evs := p.Events()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Entity != evs[j].Entity {
			return evs[i].Entity < evs[j].Entity
		}
		if evs[i].T != evs[j].T {
			return evs[i].T < evs[j].T
		}
		return evs[i].Name < evs[j].Name
	})
	return evs
}

// TestDumpRoundTrip writes a populated profiler to the binary format and
// reads it back into a fresh profiler on every layout pairing: events,
// intern ids, and every query primitive must answer identically.
func TestDumpRoundTrip(t *testing.T) {
	for _, srcL := range layouts {
		for _, dstL := range layouts {
			srcLayout, dstLayout := srcL.name, dstL.name
			src := buildDumpFixture(srcL.new)
			var buf bytes.Buffer
			n, err := src.WriteTo(&buf)
			if err != nil {
				t.Fatalf("%v->%v: WriteTo: %v", srcLayout, dstLayout, err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("%v->%v: WriteTo reported %d bytes, wrote %d", srcLayout, dstLayout, n, buf.Len())
			}
			dst := dstL.new(vclock.NewVirtual())
			m, err := dst.ReadFrom(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%v->%v: ReadFrom: %v", srcLayout, dstLayout, err)
			}
			if m != n {
				t.Errorf("%v->%v: ReadFrom consumed %d bytes, dump has %d", srcLayout, dstLayout, m, n)
			}
			if dst.EventCount() != src.EventCount() {
				t.Fatalf("%v->%v: event count %d, want %d", srcLayout, dstLayout, dst.EventCount(), src.EventCount())
			}
			if !reflect.DeepEqual(sortedEvents(src), sortedEvents(dst)) {
				t.Fatalf("%v->%v: events diverge after round trip", srcLayout, dstLayout)
			}
			// Interned ids must be reproduced, not just strings: an id
			// recorded against the source resolves identically in the copy.
			if src.EntityName(5) != dst.EntityName(5) || src.Name(2) != dst.Name(2) {
				t.Errorf("%v->%v: intern ids not preserved", srcLayout, dstLayout)
			}
			// Query parity on the reloaded profiler.
			for _, prefix := range []string{"unit.", "pattern", "core", "unit.0"} {
				for _, name := range []string{"exec_start", "exec_stop", "state_DONE"} {
					a1, ok1 := src.First(prefix, name)
					b1, ok2 := dst.First(prefix, name)
					if a1 != b1 || ok1 != ok2 {
						t.Errorf("First(%q,%q) diverges: %v/%v vs %v/%v", prefix, name, a1, ok1, b1, ok2)
					}
					a2, _ := src.Last(prefix, name)
					b2, _ := dst.Last(prefix, name)
					if a2 != b2 {
						t.Errorf("Last(%q,%q) diverges: %v vs %v", prefix, name, a2, b2)
					}
				}
				if got, want := dst.SumPairs(prefix, "exec_start", "exec_stop"), src.SumPairs(prefix, "exec_start", "exec_stop"); got != want {
					t.Errorf("SumPairs(%q) = %v, want %v", prefix, got, want)
				}
				if !reflect.DeepEqual(src.Entities(prefix), dst.Entities(prefix)) {
					t.Errorf("Entities(%q) diverges", prefix)
				}
			}
		}
	}
}

// TestDumpRejectsGarbage pins the error paths: bad magic, bad version,
// truncated streams, and non-empty destinations.
func TestDumpRejectsGarbage(t *testing.T) {
	src := buildDumpFixture(New)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh := func() *Profiler { return New(vclock.NewVirtual()) }
	if _, err := fresh().ReadFrom(bytes.NewReader([]byte("NOTAPROF"))); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), good...)
	bad[8] = 99 // version
	if _, err := fresh().ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := fresh().ReadFrom(bytes.NewReader(good[:len(good)-7])); err == nil {
		t.Error("truncated stream accepted")
	}
	used := fresh()
	used.Record("x", "y")
	if used.Empty() {
		t.Error("Empty() true after Record")
	}
	if _, err := used.ReadFrom(bytes.NewReader(good)); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("non-empty destination: err = %v, want ErrNotEmpty", err)
	}
	if !fresh().Empty() {
		t.Error("Empty() false on a fresh profiler")
	}
}

// TestWriteToAllocs: writing a dump allocates per dump, not per event.
// 40,000 unit entities with 4 events each; the codec's record buffer
// used to escape once per event (200,015 allocations here).
func TestWriteToAllocs(t *testing.T) {
	v := vclock.NewVirtual()
	p := New(v)
	names := []NameID{p.InternName("a"), p.InternName("b"), p.InternName("c"), p.InternName("d")}
	for n := 0; n < 40000; n++ {
		e := p.InternUnit(n)
		for _, name := range names {
			p.RecordID(e, name)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := p.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("WriteTo of %d events made %.0f allocations, want at most 16", p.EventCount(), allocs)
	}
}

// goldenDumps returns the committed campaign traces (ENTKPROF dumps
// written by entk-run -record) by file name, in name order.
func goldenDumps(tb testing.TB) (names []string, dumps [][]byte) {
	paths, err := filepath.Glob("../campaign/testdata/*.trace")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden traces found (%v)", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, filepath.Base(path))
		dumps = append(dumps, b)
	}
	return names, dumps
}

// rewrite reads a dump into a fresh profiler and writes it back out.
func rewrite(data []byte) ([]byte, error) {
	p := New(vclock.NewVirtual())
	if _, err := p.ReadFrom(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	_, err := p.WriteTo(&out)
	return out.Bytes(), err
}

// TestDumpGoldensRewrite: WriteTo(ReadFrom(f)) is f, byte for byte, for
// both committed campaign goldens.
func TestDumpGoldensRewrite(t *testing.T) {
	names, dumps := goldenDumps(t)
	for i, data := range dumps {
		got, err := rewrite(data)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: %d bytes written back differ from the %d read", names[i], len(got), len(data))
		}
	}
}

// FuzzProfileDump feeds arbitrary bytes to ReadFrom: it must never panic
// or over-allocate, and a dump it accepts, once written back out, must
// read and re-write to the same bytes.
func FuzzProfileDump(f *testing.F) {
	_, dumps := goldenDumps(f)
	for _, data := range dumps {
		f.Add(data)
	}
	f.Add([]byte(dumpMagic))
	f.Add(manyNamesDump(maxNames + 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := rewrite(data)
		if err != nil {
			return
		}
		twice, err := rewrite(once)
		if err != nil {
			t.Fatalf("an accepted dump, written back, fails to read: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("rewrite is not stable: %d bytes, then %d", len(once), len(twice))
		}
	})
}
