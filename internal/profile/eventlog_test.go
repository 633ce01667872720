package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestEventLogBytes gates the 12-byte event: its footprint, the
// chunk-relative time offsets across long spans and out-of-order
// stamps, and the name-table cap that keeps a name id in 16 bits.
func TestEventLogBytes(t *testing.T) {
	t.Run("footprint", func(t *testing.T) {
		// A million events over 64k unit entities, the entities and the
		// names interned before the baseline: what the log itself
		// retains. With 16-byte events in chunks of up to 8,192 this
		// read 17.7 B per event.
		const events, entities = 1 << 20, 1 << 16
		clock := &fakeClock{}
		p := New(clock)
		ents := make([]EntityID, entities)
		for i := range ents {
			ents[i] = p.InternUnit(i)
		}
		names := [...]NameID{p.InternName("state_NEW"), p.InternName("exec_start"), p.InternName("exec_stop")}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range events {
			clock.t = time.Duration(i) * time.Millisecond
			p.RecordID(ents[i%entities], names[i%len(names)])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / events
		runtime.KeepAlive(p)
		if p.EventCount() != events {
			t.Fatalf("recorded %d events, want %d", p.EventCount(), events)
		}
		t.Logf("%.2f B retained per event", perEvent)
		if perEvent > 12.5 {
			t.Errorf("the log retains %.2f B per event, want <= 12.5", perEvent)
		}
	})

	t.Run("offsets round-trip", func(t *testing.T) {
		// Entities 0 and 16 share a stripe. Their stamps span 90 h of
		// virtual time, jump back by 50 h and by seconds as a wall clock
		// stepping backwards would, and land on the extremes a 48-bit
		// offset can and cannot hold.
		h := time.Hour
		stamps := []time.Duration{
			0, 30 * h, 39 * h, 90 * h, 40 * h, 40*h - 3*time.Second, 40*h - 5*time.Second,
			40*h + maxOffset, 40*h + maxOffset + 1, -10 * h, -10*h - maxOffset - 1,
			time.Duration(math.MaxInt64), time.Duration(math.MinInt64), 7,
		}
		clock := &fakeClock{}
		p := New(clock)
		p.Intern("e.lo")
		for j := 1; j < profStripes; j++ {
			p.Intern("pad." + strconv.Itoa(j))
		}
		if lo, hi := p.Intern("e.lo"), p.Intern("e.hi"); lo&(profStripes-1) != hi&(profStripes-1) {
			t.Fatalf("fixture: ids %d and %d are in different stripes", lo, hi)
		}
		var want []Event
		for i, ts := range stamps {
			entity := "e.lo"
			if i%2 == 1 {
				entity = "e.hi"
			}
			clock.t = ts
			p.Record(entity, "tick")
			want = append(want, Event{Entity: entity, Name: "tick", T: ts})
		}
		if got := p.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Events:\n got %v\nwant %v", got, want)
		}
		if got := p.Snapshot().Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("Snapshot Events:\n got %v\nwant %v", got, want)
		}
		var dump bytes.Buffer
		if _, err := p.WriteTo(&dump); err != nil {
			t.Fatal(err)
		}
		back := New(&fakeClock{})
		if _, err := back.ReadFrom(bytes.NewReader(dump.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got := back.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("ReadFrom Events:\n got %v\nwant %v", got, want)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), dump.Bytes()) {
			t.Errorf("dump of the reloaded profiler differs: %d bytes vs %d", again.Len(), dump.Len())
		}
	})

	t.Run("name cap", func(t *testing.T) {
		p := New(&fakeClock{})
		for i := range maxNames {
			p.InternName("n" + strconv.Itoa(i))
		}
		p.InternName("n0") // known names still resolve
		defer func() {
			if recover() == nil {
				t.Error("interning name 65,537 did not panic")
			}
		}()
		p.InternName("one too many")
	})

	t.Run("dump declaring too many names", func(t *testing.T) {
		p := New(&fakeClock{})
		_, err := p.ReadFrom(bytes.NewReader(manyNamesDump(maxNames + 1)))
		if err == nil {
			t.Fatal("a dump declaring 65,537 names loaded")
		}
		if n := p.names.count(); n != 0 {
			t.Errorf("ReadFrom interned %d names before refusing the dump", n)
		}
	})
}

// manyNamesDump is an ENTKPROF dump with no entities, n event names and
// no events.
func manyNamesDump(n int) []byte {
	b := append([]byte(nil), dumpMagic...)
	b = binary.LittleEndian.AppendUint32(b, dumpVersion)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for i := range n {
		s := "n" + strconv.Itoa(i)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return binary.LittleEndian.AppendUint64(b, 0)
}
