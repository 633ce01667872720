package profile

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"entk/internal/pad"
)

// fakeClock stamps events at a settable instant.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

// TestUnitEntityCoherence checks the numeric unit slots against a
// profiler that stores every key as a string: ids, resolution, prefix
// queries and dump bytes must all be the same, and a unit key reached
// through any path — InternUnit, Intern, lookup, ReadFrom, Snapshot —
// must name one id.
func TestUnitEntityCoherence(t *testing.T) {
	// One unit number at least 1,000,000 renders with seven digits.
	units := []int{42, 1, 7, 999999, 1234567, 100000, 3}
	keys := []string{}
	numClock, strClock := &fakeClock{}, &fakeClock{}
	num, str := New(numClock), New(strClock)
	exec := [2]NameID{num.InternName("exec_start"), num.InternName("exec_stop")}
	strExec := [2]NameID{str.InternName("exec_start"), str.InternName("exec_stop")}
	// Interleave string entities and units, including keys that look
	// like units but are not a unit's key.
	for i, n := range units {
		other := []string{"pilot.0001", "pattern", "unit.0000042", "unit.42", "unit.00004x"}[i%5]
		num.Intern(other)
		str.ents.internString(other)
		key := "unit." + pad.Int(n, 6)
		keys = append(keys, key)
		var id EntityID
		if i%2 == 0 {
			id = num.InternUnit(n)
		} else {
			id = num.Intern(key) // the string path lands on a unit slot too
		}
		sid := EntityID(str.ents.internString(key))
		if id != sid {
			t.Fatalf("unit %d: id %d, string-stored profiler %d", n, id, sid)
		}
		if _, _, isUnit := num.ents.slot(uint32(id)); !isUnit {
			t.Errorf("%s is stored as a string", key)
		}
		for j, at := range []time.Duration{time.Duration(i) * time.Second, time.Duration(i+n%5+1) * time.Second} {
			numClock.t, strClock.t = at, at
			num.RecordID(id, exec[j])
			str.RecordID(sid, strExec[j])
		}
	}
	if got := keys[4]; got != "unit.1234567" {
		t.Fatalf("seven-digit key %q", got)
	}

	for i, n := range units {
		id := num.InternUnit(n)
		if got := num.Intern(keys[i]); got != id {
			t.Errorf("Intern(%q) = %d after InternUnit(%d) = %d", keys[i], got, n, id)
		}
		if got, ok := num.ents.lookup(keys[i]); !ok || EntityID(got) != id {
			t.Errorf("lookup(%q) = %d, %v; want %d", keys[i], got, ok, id)
		}
		if got := num.EntityName(id); got != keys[i] {
			t.Errorf("EntityName(%d) = %q, want %q", id, got, keys[i])
		}
	}
	if _, ok := num.ents.lookup("unit.000005"); ok {
		t.Error("lookup found a unit that was never interned")
	}
	if a, b := num.ents.count(), str.ents.count(); a != b {
		t.Fatalf("%d entities, string-stored profiler %d", a, b)
	}
	for id := 0; id < num.ents.count(); id++ {
		if a, b := num.EntityName(EntityID(id)), str.EntityName(EntityID(id)); a != b {
			t.Errorf("EntityName(%d) = %q, string-stored %q", id, a, b)
		}
	}

	for _, prefix := range []string{"", "u", "unit.", "unit.0000", "unit.00004", "unit.1", "unit.12345", "pilot.", "unit.0000042x"} {
		if a, b := num.Entities(prefix), str.Entities(prefix); !reflect.DeepEqual(a, b) {
			t.Errorf("Entities(%q) = %v, string-stored %v", prefix, a, b)
		}
		if a, b := num.Count(prefix, "exec_stop"), str.Count(prefix, "exec_stop"); a != b {
			t.Errorf("Count(%q) = %d, string-stored %d", prefix, a, b)
		}
		if a, b := num.SumPairs(prefix, "exec_start", "exec_stop"), str.SumPairs(prefix, "exec_start", "exec_stop"); a != b {
			t.Errorf("SumPairs(%q) = %v, string-stored %v", prefix, a, b)
		}
	}
	if a, b := sortedEvents(num), sortedEvents(str); !reflect.DeepEqual(a, b) {
		t.Errorf("Events differ:\n%v\n%v", a, b)
	}

	var numDump, strDump bytes.Buffer
	if _, err := num.WriteTo(&numDump); err != nil {
		t.Fatal(err)
	}
	if _, err := str.WriteTo(&strDump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(numDump.Bytes(), strDump.Bytes()) {
		t.Fatalf("dump bytes differ from the string-stored profiler's")
	}

	// A reloaded dump and a snapshot keep the unit slots and their ids.
	back := New(&fakeClock{})
	if _, err := back.ReadFrom(bytes.NewReader(strDump.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Profiler{back, num.Snapshot()} {
		var again bytes.Buffer
		if _, err := p.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), strDump.Bytes()) {
			t.Error("a reloaded or snapshotted profiler dumps different bytes")
		}
		for _, n := range units {
			if got, want := p.InternUnit(n), num.InternUnit(n); got != want {
				t.Errorf("InternUnit(%d) = %d, want %d", n, got, want)
			}
			if _, _, isUnit := p.ents.slot(uint32(num.InternUnit(n))); !isUnit {
				t.Errorf("unit %d lost its numeric slot", n)
			}
		}
	}
}

// TestUnitNumberRule pins which keys are unit keys: exactly the ones
// "unit." + pad.Int(n, 6) renders for a number the table can hold.
func TestUnitNumberRule(t *testing.T) {
	for _, n := range []int{0, 1, 42, 999999, 1000000, 1234567, maxUnit - 1} {
		key := "unit." + pad.Int(n, 6)
		if got, ok := unitNumber(key); !ok || got != n {
			t.Errorf("unitNumber(%q) = %d, %v; want %d", key, got, ok, n)
		}
	}
	for _, key := range []string{"unit.", "unit.42", "unit.00042", "unit.0000042", "unit.00000x",
		"unit.-00001", "unit.16777216", "unit.123456789", "units.000042", "pilot.000042"} {
		if n, ok := unitNumber(key); ok {
			t.Errorf("unitNumber(%q) = %d, want no unit", key, n)
		}
	}
	// Out of range, InternUnit is Intern of the rendered key: a negative
	// number renders as unit 0, and one past the table stays a string.
	p := New(&fakeClock{})
	for _, n := range []int{-1, maxUnit} {
		id := p.InternUnit(n)
		if got := p.Intern("unit." + pad.Int(n, 6)); got != id {
			t.Errorf("InternUnit(%d) = %d, Intern of its key %d", n, id, got)
		}
	}
	if _, _, isUnit := p.ents.slot(uint32(p.InternUnit(maxUnit))); isUnit {
		t.Errorf("InternUnit(%d) took a numeric slot", maxUnit)
	}
}
