package pilot

import (
	"testing"
	"time"

	"entk/internal/cluster"
	"entk/internal/kernels"
	"entk/internal/vclock"
)

// TestScaleFourThousandUnits exercises the paper's largest configuration
// (Figure 8's 4096 concurrent tasks) directly at the pilot layer: all
// units run concurrently, the agent never oversubscribes, and aggregate
// accounting stays exact.
func TestScaleFourThousandUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	v := vclock.NewVirtual()
	s := NewSession(v, kernels.NewRegistry(), DefaultConfig())
	v.Run(func() {
		pm := NewPilotManager(s)
		p, err := pm.Submit(PilotDescription{
			Resource: "xsede.stampede", Cores: 4096, Walltime: 100 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.WaitActive()
		um := NewUnitManager(s)
		um.AddPilot(p)
		descs := make([]UnitDescription, 4096)
		for i := range descs {
			descs[i] = sleepUnit("scale", 30)
		}
		units, err := um.Submit(descs)
		if err != nil {
			t.Fatal(err)
		}
		var done int
		for _, st := range um.WaitAll(units) {
			if st == UnitDone {
				done++
			}
		}
		if done != 4096 {
			t.Fatalf("%d of 4096 units done", done)
		}
		// All concurrent: the span between first exec start and last exec
		// stop must be 30s plus launch stagger, not multiple waves.
		var minStart, maxStop time.Duration
		first := true
		for _, u := range units {
			start, stop, ok := u.ExecWindow()
			if !ok {
				t.Fatal("unit without exec window")
			}
			if first || start < minStart {
				minStart = start
			}
			if stop > maxStop {
				maxStop = stop
			}
			first = false
		}
		span := maxStop - minStart
		if span < 30*time.Second || span > 40*time.Second {
			t.Errorf("4096-unit span = %v, want ~30-40s (single wave)", span)
		}
		p.agent.quiesce().Wait() // the last release follows the last final
		if free := p.agent.freeCores(); free != 4096 {
			t.Errorf("free cores after drain = %d", free)
		}
		p.Cancel()
	})
}

// TestMultiMachineSession runs pilots on two different machines in one
// session, with the unit manager spreading units across them.
func TestMultiMachineSession(t *testing.T) {
	v := vclock.NewVirtual()
	s := NewSession(v, kernels.NewRegistry(), DefaultConfig())
	v.Run(func() {
		pm := NewPilotManager(s)
		comet, err := pm.Submit(PilotDescription{
			Resource: "xsede.comet", Cores: 24, Walltime: 10 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		supermic, err := pm.Submit(PilotDescription{
			Resource: "lsu.supermic", Cores: 20, Walltime: 10 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		comet.WaitActive()
		supermic.WaitActive()

		um := NewUnitManager(s)
		um.AddPilot(comet)
		um.AddPilot(supermic)
		descs := make([]UnitDescription, 10)
		for i := range descs {
			descs[i] = sleepUnit("multi", 1)
		}
		units, _ := um.Submit(descs)
		um.WaitAll(units)
		byPilot := map[*ComputePilot]int{}
		for _, u := range units {
			if u.State() != UnitDone {
				t.Fatalf("unit state %v", u.State())
			}
			byPilot[u.Pilot()]++
		}
		if byPilot[comet] != 5 || byPilot[supermic] != 5 {
			t.Errorf("units split %d/%d, want 5/5", byPilot[comet], byPilot[supermic])
		}
		comet.Cancel()
		supermic.Cancel()
	})
}

// TestKernelExecutableResolutionPerMachine verifies the kernel plugin's
// resource transparency claim end to end: the same kernel name resolves
// to different tool paths on different machines.
func TestKernelExecutableResolutionPerMachine(t *testing.T) {
	reg := kernels.NewRegistry()
	amber, err := reg.Lookup("md.amber")
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{}
	for _, name := range []string{"xsede.comet", "xsede.stampede", "lsu.supermic"} {
		m, err := cluster.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := amber.Executable(m)
		if err != nil {
			t.Fatal(err)
		}
		paths[name] = exe
	}
	if paths["xsede.comet"] == paths["xsede.stampede"] {
		t.Error("comet and stampede resolve to the same amber path")
	}
}
