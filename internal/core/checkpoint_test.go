package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"entk/internal/pilot"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// ckptFixture is a hand-built checkpoint exercising every field: multiple
// pipelines, a zero-progress pipeline, and phase lists of mixed size.
func ckptFixture() *CampaignCheckpoint {
	return &CampaignCheckpoint{Pipelines: []PipelineCheckpoint{
		{Name: "md", SettledStages: 3, Tasks: 48, Retries: 2,
			PatternOverhead: 480 * time.Millisecond,
			Phases: []PhaseStat{
				{Name: "stage.1", Span: 5 * time.Second, Busy: 80 * time.Second, Tasks: 16, Occurrences: 1},
				{Name: "stage.2", Span: 6 * time.Second, Busy: 80 * time.Second, Tasks: 16, Occurrences: 2},
			},
			HookStages: []StageSnapshot{
				{Seq: 2, Units: []UnitSnapshot{
					{Name: "md.task00001", Kernel: "misc.sleep",
						Params: map[string]float64{"seconds": 5, "warmup": 0.5},
						Cores:  2, MPI: true, Tags: []string{"cpu", "fast"},
						Start: 11 * time.Second, Stop: 16 * time.Second},
					{Name: "md.task00002", Kernel: "misc.ccount", Cores: 1,
						Start: 11 * time.Second, Stop: 12 * time.Second},
				}},
				{Seq: 3}, // control node: hook with no tasks
			}},
		{Name: "analysis"},
	}}
}

// ckptProfFixture records a small deterministic trace.
func ckptProfFixture() *profile.Profiler {
	v := vclock.NewVirtual()
	p := profile.New(v)
	v.Run(func() {
		for i := 0; i < 64; i++ {
			v.Sleep(time.Millisecond)
			p.Record("unit.0000", "exec_start")
			v.Sleep(5 * time.Millisecond)
			p.Record("unit.0000", "exec_stop")
			p.Record("core", "tick")
		}
	})
	return p
}

// TestCheckpointRoundTrip pins the checkpoint serialisation: the state
// section round-trips exactly, the appended trace section round-trips,
// and corrupt streams error out instead of panicking.
func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("state-only", func(t *testing.T) {
		for _, cp := range []*CampaignCheckpoint{ckptFixture(), {}} {
			var buf bytes.Buffer
			if err := SaveCheckpoint(&buf, cp, nil); err != nil {
				t.Fatal(err)
			}
			got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cp) {
				t.Errorf("round trip diverges:\ngot  %+v\nwant %+v", got, cp)
			}
		}
	})

	// The product has one profiler store; the subtest keeps the
	// source-to-destination store naming of the earlier layout cross.
	t.Run("with-trace/columnar-to-columnar", func(t *testing.T) {
		src := ckptProfFixture()
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, ckptFixture(), src); err != nil {
			t.Fatal(err)
		}
		dst := profile.New(vclock.NewVirtual())
		got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ckptFixture()) {
			t.Error("state section diverged when a trace follows")
		}
		if dst.EventCount() != src.EventCount() {
			t.Errorf("trace events = %d, want %d", dst.EventCount(), src.EventCount())
		}
		a, ok1 := src.First("unit.", "exec_start")
		b, ok2 := dst.First("unit.", "exec_start")
		if a != b || ok1 != ok2 {
			t.Errorf("trace query diverges after round trip: %v/%v vs %v/%v", a, ok1, b, ok2)
		}
		// A nil profiler skips the trace but still consumes the flag
		// byte: the state section alone must load from the same bytes.
		got2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), nil)
		if err != nil || !reflect.DeepEqual(got2, ckptFixture()) {
			t.Errorf("nil-prof load of traced stream: %v", err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, ckptFixture(), nil); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		if _, err := LoadCheckpoint(bytes.NewReader([]byte("NOTACKPT")), nil); err == nil {
			t.Error("bad magic accepted")
		}
		bad := append([]byte(nil), good...)
		bad[8] = 99 // version
		if _, err := LoadCheckpoint(bytes.NewReader(bad), nil); err == nil {
			t.Error("bad version accepted")
		}
		if _, err := LoadCheckpoint(bytes.NewReader(good[:len(good)-5]), nil); err == nil {
			t.Error("truncated stream accepted")
		}
	})
}

// TestCheckpointFixtureBytes pins both on-disk versions. The committed
// files were written by the codec before it moved onto internal/wire:
// SaveCheckpoint must still produce the v2 file byte for byte, and a v1
// stream (no hook-stage section) must still load, as the same state
// without its hook stages.
func TestCheckpointFixtureBytes(t *testing.T) {
	v2, err := os.ReadFile("testdata/checkpoint-v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, ckptFixture(), ckptProfFixture()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Errorf("SaveCheckpoint wrote %d bytes that differ from the committed %d-byte v2 file", buf.Len(), len(v2))
	}

	v1, err := os.ReadFile("testdata/checkpoint-v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want := ckptFixture()
	for i := range want.Pipelines {
		want.Pipelines[i].HookStages = nil
	}
	prof := profile.New(vclock.NewVirtual())
	got, err := LoadCheckpoint(bytes.NewReader(v1), prof)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v1 file loads as\n%+v\nwant\n%+v", got, want)
	}
	if n, m := prof.EventCount(), ckptProfFixture().EventCount(); n != m {
		t.Errorf("v1 file's trace has %d events, want %d", n, m)
	}
}

// declaredCountStream is a 113-byte checkpoint that declares 2^24 params
// (within the cap) for its one unit, carries one, and ends.
func declaredCountStream() []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { u32(uint32(len(s))); b = append(b, s...) }
	b = append(b, ckptMagic...)
	u32(ckptVersion)
	u32(1) // pipelines
	str("p")
	u32(1)           // settled stages
	u64(1)           // tasks
	u64(0)           // retries
	u64(0)           // overhead
	u32(0)           // phases
	u32(1)           // hook stages
	u32(1)           // seq
	u32(1)           // units
	str("u")         // name
	str("k")         // kernel
	u32(1)           // cores
	b = append(b, 0) // mpi
	u64(0)           // start
	u64(1)           // stop
	u32(1 << 24)     // params
	str("a")
	u64(0)
	return b
}

// TestCheckpointDeclaredCountAllocatesNothing: a count the stream
// declares sizes nothing. The stream ends after the first of 2^24
// params; the load must fail having allocated well under a megabyte.
func TestCheckpointDeclaredCountAllocatesNothing(t *testing.T) {
	data := declaredCountStream()
	if len(data) != 113 {
		t.Fatalf("stream is %d bytes, want 113", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadCheckpoint(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("truncated stream accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("loading a %d-byte stream allocated %d bytes, want under 1 MB", len(data), got)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to LoadCheckpoint: it must never
// panic or over-allocate, and whatever it does accept must re-serialise
// canonically (save → load is the identity on accepted states).
func FuzzCheckpoint(f *testing.F) {
	for _, cp := range []*CampaignCheckpoint{ckptFixture(), {}} {
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, cp, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("ENTKCKPT"))
	f.Add(declaredCountStream())
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := LoadCheckpoint(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, cp, nil); err != nil {
			t.Fatalf("accepted checkpoint fails to save: %v", err)
		}
		cp2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("canonical re-load: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("canonical round trip diverges:\ngot  %+v\nwant %+v", cp2, cp)
		}
	})
}

// phaseProjection is the reorder-invariant view of a phase list: the
// timeline-position column (Span start offsets) is dropped, everything
// whose value is independent of when the work ran is kept.
type phaseProjection struct {
	Name        string
	Busy        time.Duration
	Tasks       int
	Occurrences int
}

func projectPhases(phs []PhaseStat) []phaseProjection {
	out := make([]phaseProjection, len(phs))
	for i, ph := range phs {
		out[i] = phaseProjection{ph.Name, ph.Busy, ph.Tasks, ph.Occurrences}
	}
	return out
}

// TestResumeReportParity is the checkpoint/resume acceptance gate: a
// campaign killed mid-run and resumed from its persisted checkpoint (on
// a fresh clock, binding, and session) must agree with an uninterrupted
// run on every reorder-invariant report column — task and retry counts
// at campaign and pipeline level, and the per-phase busy/task/occurrence
// aggregates. The checkpoint round-trips through disk bytes alongside
// the run's trace before resuming, so the gate covers persistence, not
// just the in-memory tracker.
func TestResumeReportParity(t *testing.T) {
	registerBindingMachines(t)
	parity := func() *Pipeline { return faultPipeline("par", 8, 4, 5, false) }
	newWideSet := func(v *vclock.Virtual) *ResourceSet {
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	// Baseline: the uninterrupted run.
	v0 := vclock.NewVirtual()
	rs0 := newWideSet(v0)
	var r0 *CampaignReport
	v0.Run(func() {
		if err := rs0.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		r0, err = NewAppManager(rs0).Run(parity())
		if err != nil {
			t.Fatalf("baseline run: %v", err)
		}
		rs0.Deallocate()
	})

	// Faulted run: the pilot dies mid stage 2 with no recovery installed;
	// the campaign settles as a partial failure and the tracker holds the
	// stage-1 barrier snapshot.
	v1 := vclock.NewVirtual()
	rs1 := newWideSet(v1)
	rs1.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
		{At: 14*time.Second + time.Nanosecond, Pilot: 0, Kind: pilot.FaultKillPilot},
	}}
	am := NewAppManager(rs1)
	var ferr error
	v1.Run(func() {
		if err := rs1.Allocate(); err != nil {
			t.Fatal(err)
		}
		_, ferr = am.Run(parity())
		rs1.Deallocate()
	})
	var perr *PatternError
	if !errors.As(ferr, &perr) {
		t.Fatalf("faulted run err = %v, want PatternError", ferr)
	}
	cp := am.Checkpoint()
	pc := cp.Pipeline("par")
	if pc == nil {
		t.Fatal("checkpoint lost the pipeline")
	}
	if pc.SettledStages < 1 || pc.SettledStages > 3 {
		t.Fatalf("settled stages = %d, want a proper prefix (1-3) of the 4-stage pipeline",
			pc.SettledStages)
	}

	// Persist the checkpoint alongside the faulted run's trace, then
	// reload both from the bytes.
	prof := rs1.Session().Prof
	savedEvents := prof.EventCount()
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp, prof); err != nil {
		t.Fatal(err)
	}
	evidence := profile.New(vclock.NewVirtual())
	cp2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), evidence)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp2, cp) {
		t.Fatal("checkpoint diverged through the save/load round trip")
	}
	if evidence.EventCount() != savedEvents {
		t.Errorf("trace evidence = %d events, want %d", evidence.EventCount(), savedEvents)
	}

	// Resume on a fresh binding from the reloaded checkpoint.
	v2 := vclock.NewVirtual()
	rs2 := newWideSet(v2)
	var r1 *CampaignReport
	v2.Run(func() {
		if err := rs2.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		r1, err = NewAppManager(rs2).Resume(cp2, parity())
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		rs2.Deallocate()
	})

	// Reorder-invariant parity, campaign and pipeline level.
	if r1.Campaign.Tasks != r0.Campaign.Tasks || r1.Campaign.Retries != r0.Campaign.Retries {
		t.Errorf("campaign tasks/retries = %d/%d, want %d/%d",
			r1.Campaign.Tasks, r1.Campaign.Retries, r0.Campaign.Tasks, r0.Campaign.Retries)
	}
	p0, p1 := r0.Pipelines[0], r1.Pipelines[0]
	if p1.Tasks != p0.Tasks || p1.Retries != p0.Retries || p1.PlannedTasks != p0.PlannedTasks {
		t.Errorf("pipeline tasks/retries/planned = %d/%d/%d, want %d/%d/%d",
			p1.Tasks, p1.Retries, p1.PlannedTasks, p0.Tasks, p0.Retries, p0.PlannedTasks)
	}
	if p1.PatternOverhead != p0.PatternOverhead {
		t.Errorf("pattern overhead = %v, want %v (each wave submitted exactly once)",
			p1.PatternOverhead, p0.PatternOverhead)
	}
	if got, want := projectPhases(p1.Phases), projectPhases(p0.Phases); !reflect.DeepEqual(got, want) {
		t.Errorf("phase projection diverges:\nresumed  %+v\nbaseline %+v", got, want)
	}
}

// TestResumePostStageGrowth gates the PostStage-replay fix: a campaign
// whose settled prefix contains an adaptive hook — one that inserts and
// appends stages based on the units it inspects — is killed mid-run and
// resumed from the persisted checkpoint. The replayed hook must
// reconstruct the same graph growth from the checkpointed unit
// snapshots, so the resumed run executes the full adaptive graph and
// agrees with an uninterrupted run on every reorder-invariant report
// column. Before the fix the skipped prefix dropped the hook, the
// inserted/appended stages never existed on resume, and the task counts
// diverged.
func TestResumePostStageGrowth(t *testing.T) {
	registerBindingMachines(t)
	sleep := func(sec float64) *Kernel {
		return &Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": sec}}
	}
	wave := func(name string, width int, sec float64) *Stage {
		tasks := make([]Task, width)
		for i := range tasks {
			tasks[i] = Task{Kernel: sleep(sec)}
		}
		return &Stage{Name: name, Tasks: tasks}
	}
	// The adaptive pipeline: the seed stage's hook is a deterministic
	// function of its units — one refine task per unit that ran at
	// least a second, plus an appended summary stage half that wide.
	// Executed shape: seed → refine → mid → tail → summary.
	growth := func() *Pipeline {
		seed := wave("seed", 6, 5)
		seed.PostStage = func(ctl *StageCtl) error {
			done := 0
			for _, u := range ctl.Units() {
				if u == nil {
					continue
				}
				if start, stop, ok := u.ExecWindow(); ok && stop-start >= time.Second {
					done++
				}
			}
			if done > 0 {
				ctl.InsertStages(wave("refine", done, 3))
				ctl.AppendStages(wave("summary", done/2+1, 2))
			}
			return nil
		}
		return &Pipeline{Name: "adapt", Stages: []*Stage{
			seed, wave("mid", 8, 5), wave("tail", 4, 4),
		}}
	}
	newWideSet := func(v *vclock.Virtual) *ResourceSet {
		rs, err := NewResourceSet([]PilotSpec{
			{Resource: "test.bind.wide", Cores: 32, Walltime: 100 * time.Hour},
		}, Config{Clock: v})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	// Baseline: the uninterrupted adaptive run.
	v0 := vclock.NewVirtual()
	rs0 := newWideSet(v0)
	var r0 *CampaignReport
	v0.Run(func() {
		if err := rs0.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		r0, err = NewAppManager(rs0).Run(growth())
		if err != nil {
			t.Fatalf("baseline run: %v", err)
		}
		rs0.Deallocate()
	})
	// 6 seed + 6 refine + 8 mid + 4 tail + 4 summary.
	if r0.Campaign.Tasks != 28 {
		t.Fatalf("baseline tasks = %d, want 28 (hook growth missing from the fresh run?)",
			r0.Campaign.Tasks)
	}

	// Faulted run: the pilot dies after the seed stage (and its hook)
	// settled but before the grown graph finishes.
	v1 := vclock.NewVirtual()
	rs1 := newWideSet(v1)
	rs1.Faults = &pilot.FaultPlan{Faults: []pilot.Fault{
		{At: 14*time.Second + time.Nanosecond, Pilot: 0, Kind: pilot.FaultKillPilot},
	}}
	am := NewAppManager(rs1)
	var ferr error
	v1.Run(func() {
		if err := rs1.Allocate(); err != nil {
			t.Fatal(err)
		}
		_, ferr = am.Run(growth())
		rs1.Deallocate()
	})
	var perr *PatternError
	if !errors.As(ferr, &perr) {
		t.Fatalf("faulted run err = %v, want PatternError", ferr)
	}
	cp := am.Checkpoint()
	pc := cp.Pipeline("adapt")
	if pc == nil {
		t.Fatal("checkpoint lost the pipeline")
	}
	if pc.SettledStages < 1 {
		t.Fatalf("settled stages = %d; the fault landed before the hook stage settled, "+
			"so the test would not exercise replay", pc.SettledStages)
	}
	// The settled hook stage must carry its replay snapshot.
	var hook *StageSnapshot
	for i := range pc.HookStages {
		if pc.HookStages[i].Seq == 1 {
			hook = &pc.HookStages[i]
		}
	}
	if hook == nil {
		t.Fatalf("checkpoint carries no replay snapshot for the settled hook stage (HookStages = %+v)",
			pc.HookStages)
	}
	if len(hook.Units) != 6 {
		t.Fatalf("hook snapshot has %d units, want the seed stage's 6", len(hook.Units))
	}

	// Persist through bytes, then resume on a fresh binding.
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp, rs1.Session().Prof); err != nil {
		t.Fatal(err)
	}
	cp2, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp2, cp) {
		t.Fatal("checkpoint diverged through the save/load round trip")
	}
	v2 := vclock.NewVirtual()
	rs2 := newWideSet(v2)
	var r1 *CampaignReport
	v2.Run(func() {
		if err := rs2.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		r1, err = NewAppManager(rs2).Resume(cp2, growth())
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		rs2.Deallocate()
	})

	// Reorder-invariant parity with the uninterrupted adaptive run.
	if r1.Campaign.Tasks != r0.Campaign.Tasks || r1.Campaign.Retries != r0.Campaign.Retries {
		t.Errorf("campaign tasks/retries = %d/%d, want %d/%d",
			r1.Campaign.Tasks, r1.Campaign.Retries, r0.Campaign.Tasks, r0.Campaign.Retries)
	}
	p0, p1 := r0.Pipelines[0], r1.Pipelines[0]
	if p1.Tasks != p0.Tasks || p1.Retries != p0.Retries {
		t.Errorf("pipeline tasks/retries = %d/%d, want %d/%d",
			p1.Tasks, p1.Retries, p0.Tasks, p0.Retries)
	}
	if got, want := projectPhases(p1.Phases), projectPhases(p0.Phases); !reflect.DeepEqual(got, want) {
		t.Errorf("phase projection diverges:\nresumed  %+v\nbaseline %+v", got, want)
	}
}
