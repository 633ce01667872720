package saga

import (
	"strings"
	"testing"
	"time"

	"entk/internal/batch"
	"entk/internal/cluster"
	"entk/internal/vclock"
)

func testMachine() *cluster.Machine {
	return &cluster.Machine{
		Name:             "test.machine",
		Nodes:            4,
		CoresPerNode:     10,
		FSBandwidthMBps:  100,
		NetLatency:       50 * time.Millisecond,
		QueueWaitBase:    10 * time.Second,
		QueueWaitPerNode: time.Second,
	}
}

func TestJobDescriptionValidate(t *testing.T) {
	good := JobDescription{Executable: "agent", TotalCPUCount: 4, WallTimeLimit: time.Hour}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []JobDescription{
		{TotalCPUCount: 4, WallTimeLimit: time.Hour},
		{Executable: "x", TotalCPUCount: 0, WallTimeLimit: time.Hour},
		{Executable: "x", TotalCPUCount: 4},
	}
	for i, jd := range bad {
		if err := jd.Validate(); err == nil {
			t.Errorf("case %d: invalid description accepted", i)
		}
	}
}

func TestStateStringsAndFinal(t *testing.T) {
	finals := map[State]bool{
		New: false, Pending: false, Running: false,
		Done: true, Canceled: true, Failed: true,
	}
	for s, want := range finals {
		if s.Final() != want {
			t.Errorf("%v.Final() = %v", s, s.Final())
		}
		if s.String() == "" {
			t.Errorf("%d has empty string", s)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestBatchServiceLifecycle(t *testing.T) {
	v := vclock.NewVirtual()
	m := testMachine()
	sys, err := batch.NewSystem(v, m, batch.FIFO)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewBatchService(v, sys)
	if !strings.Contains(svc.URL(), m.Name) {
		t.Errorf("URL = %q", svc.URL())
	}
	v.Run(func() {
		start := v.Now()
		j, err := svc.Submit(JobDescription{
			Executable: "pilot-agent", TotalCPUCount: 15, WallTimeLimit: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Submit pays one network round trip.
		if got := v.Now() - start; got != 100*time.Millisecond {
			t.Errorf("submit latency = %v, want 100ms", got)
		}
		if j.State() != Pending {
			t.Errorf("state = %v, want PENDING", j.State())
		}
		if !strings.Contains(j.ID(), m.Name) {
			t.Errorf("ID = %q", j.ID())
		}
		j.WaitRunning()
		if j.State() != Running {
			t.Errorf("state = %v, want RUNNING", j.State())
		}
		v.Sleep(5 * time.Second)
		j.SignalDone()
		if st := j.WaitFinal(); st != Done {
			t.Errorf("final = %v, want DONE", st)
		}
	})
}

func TestBatchServiceRejectsInvalid(t *testing.T) {
	v := vclock.NewVirtual()
	sys, _ := batch.NewSystem(v, testMachine(), batch.FIFO)
	svc := NewBatchService(v, sys)
	v.Run(func() {
		if _, err := svc.Submit(JobDescription{}); err == nil {
			t.Error("empty description accepted")
		}
		// Valid JSDL but impossible on this machine.
		if _, err := svc.Submit(JobDescription{
			Executable: "x", TotalCPUCount: 10000, WallTimeLimit: time.Hour,
		}); err == nil {
			t.Error("oversized job accepted")
		}
	})
}

func TestBatchServiceCancelAndWalltime(t *testing.T) {
	v := vclock.NewVirtual()
	sys, _ := batch.NewSystem(v, testMachine(), batch.FIFO)
	svc := NewBatchService(v, sys)
	v.Run(func() {
		j, _ := svc.Submit(JobDescription{Executable: "a", TotalCPUCount: 5, WallTimeLimit: time.Minute})
		j.WaitRunning()
		j.Cancel()
		if st := j.WaitFinal(); st != Canceled {
			t.Errorf("final = %v, want CANCELED", st)
		}

		k, _ := svc.Submit(JobDescription{Executable: "b", TotalCPUCount: 5, WallTimeLimit: time.Minute})
		k.WaitRunning()
		if st := k.WaitFinal(); st != Failed {
			t.Errorf("walltime final = %v, want FAILED", st)
		}
	})
}
