package stage

import (
	"strings"
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/vclock"
)

func testMachine() *cluster.Machine {
	return &cluster.Machine{
		Name:            "test.machine",
		Nodes:           1,
		CoresPerNode:    4,
		FSBandwidthMBps: 100,
		FSLatency:       10 * time.Millisecond,
		NetLatency:      50 * time.Millisecond,
	}
}

func TestDirectiveValidate(t *testing.T) {
	if err := (Directive{Op: Copy, Source: "a", SizeMB: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Directive{Op: Copy, Source: "  "}).Validate(); err == nil {
		t.Error("empty source accepted")
	}
	if err := (Directive{Op: Upload, Source: "a", SizeMB: -1}).Validate(); err == nil {
		t.Error("negative size accepted")
	}
}

func TestDirectiveString(t *testing.T) {
	s := Directive{Op: Copy, Source: "in.dat", Target: "sandbox/in.dat", SizeMB: 12.5}.String()
	for _, want := range []string{"copy", "in.dat", "sandbox/in.dat", "12.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
	if !strings.Contains((Directive{Op: Link, Source: "x"}).String(), "> .") {
		t.Error("empty target not rendered as '.'")
	}
	for _, op := range []Op{Upload, Copy, Link, Download, Op(9)} {
		if op.String() == "" {
			t.Error("empty op string")
		}
	}
}

func TestCostModel(t *testing.T) {
	v := vclock.NewVirtual()
	m := NewMover(v, testMachine())
	// Link: latency only.
	if got := m.Cost(Directive{Op: Link, Source: "x", SizeMB: 999}); got != 10*time.Millisecond {
		t.Errorf("link cost = %v", got)
	}
	// Copy 100MB at 100MB/s = 1s + 10ms latency.
	if got := m.Cost(Directive{Op: Copy, Source: "x", SizeMB: 100}); got != 1010*time.Millisecond {
		t.Errorf("copy cost = %v", got)
	}
	// Upload 50MB at 100MB/s WAN = 0.5s + 2*50ms.
	if got := m.Cost(Directive{Op: Upload, Source: "x", SizeMB: 50}); got != 600*time.Millisecond {
		t.Errorf("upload cost = %v", got)
	}
	if got := m.Cost(Directive{Op: Download, Source: "x", SizeMB: 0}); got != 100*time.Millisecond {
		t.Errorf("empty download cost = %v", got)
	}
}

func TestRunAdvancesClockAndAccounts(t *testing.T) {
	v := vclock.NewVirtual()
	m := NewMover(v, testMachine())
	dirs := []Directive{
		{Op: Upload, Source: "input.gro", Target: "staging/", SizeMB: 10},
		{Op: Link, Source: "staging/input.gro", Target: "unit0/"},
		{Op: Copy, Source: "ref.pdb", Target: "unit0/", SizeMB: 5},
	}
	var total time.Duration
	v.Run(func() {
		var err error
		total, err = m.Run(dirs)
		if err != nil {
			t.Fatal(err)
		}
	})
	want := (2*50*time.Millisecond + 100*time.Millisecond) + // upload
		10*time.Millisecond + // link
		(10*time.Millisecond + 50*time.Millisecond) // copy
	if total != want {
		t.Errorf("total staging = %v, want %v", total, want)
	}
	if got := v.Now(); got != want {
		t.Errorf("clock advanced %v, want %v", got, want)
	}
	ops, mb := m.Stats()
	if ops != 3 {
		t.Errorf("ops = %d, want 3", ops)
	}
	if mb != 15 { // link does not count as transfer
		t.Errorf("transferred = %v MB, want 15", mb)
	}
}

func TestRunStopsOnInvalidDirective(t *testing.T) {
	v := vclock.NewVirtual()
	m := NewMover(v, testMachine())
	v.Run(func() {
		_, err := m.Run([]Directive{
			{Op: Copy, Source: "ok", SizeMB: 1},
			{Op: Copy, Source: ""},
			{Op: Copy, Source: "never-reached", SizeMB: 1},
		})
		if err == nil {
			t.Fatal("invalid directive accepted")
		}
	})
	ops, _ := m.Stats()
	if ops != 1 {
		t.Errorf("ops after failure = %d, want 1", ops)
	}
}

// Stats reports cumulative operations and megabytes moved.
func (m *Mover) Stats() (ops int, transferredMB float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops, m.transferred
}
