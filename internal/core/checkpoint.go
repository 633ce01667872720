package core

// Campaign checkpoint/resume. The AppManager tracks every pipeline's
// progress at stage-barrier granularity — the only instants at which a
// pipeline's state is a pure prefix (every task of the settled stages is
// final, none of the remainder has started). A checkpoint is the set of
// per-pipeline barrier snapshots; resuming re-runs the same pipelines
// with each settled prefix skipped and the executor counters seeded, so
// the resumed report agrees with an uninterrupted run on every
// reorder-invariant column (tasks, retries, per-phase busy/task/
// occurrence counts — TestResumeReportParity pins this).
//
// PostStage hooks of settled stages ARE replayed on resume: each
// settled stage that carries a hook checkpoints a snapshot of its
// compute units (name, kernel, params, exec window), and resume
// invokes the hook against replay units reconstructed from the
// snapshot, so InsertStages/AppendStages/Terminate graph growth is
// re-derived exactly. The contract this leans on: hooks must be
// deterministic functions of their StageCtl — a hook that consults
// external mutable state may replay differently than it ran.
//
// On disk a checkpoint is the "ENTKCKPT" section below, optionally
// followed — in the same stream — by a full profile dump
// (profile.WriteTo), so one file carries both the resume state and the
// trace evidence of the run that produced it. The profile section
// round-trips through either profiler storage layout.

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"time"

	"entk/internal/profile"
	"entk/internal/wire"
)

// PipelineCheckpoint is one pipeline's state at its last settled stage
// barrier.
type PipelineCheckpoint struct {
	// Name identifies the pipeline (campaign names are defaulted before
	// tracking, so the checkpoint key is always non-empty).
	Name string
	// SettledStages counts the stages settled from the pipeline's start
	// (execution order, including inserted stages). Resume skips exactly
	// this prefix.
	SettledStages int
	// Tasks and Retries are the executor counters at the barrier.
	Tasks   int
	Retries int
	// PatternOverhead is the submission overhead accumulated so far.
	PatternOverhead time.Duration
	// Phases are the per-phase aggregates at the barrier.
	Phases []PhaseStat
	// HookStages snapshots the settled units of every settled stage
	// that carries a PostStage hook, keyed by execution index — the
	// data Resume replays the hooks against to reconstruct graph
	// growth. Stages without hooks checkpoint nothing here.
	HookStages []StageSnapshot
}

// StageSnapshot is the checkpointed unit set of one settled stage that
// carries a PostStage hook.
type StageSnapshot struct {
	// Seq is the stage's 1-based execution index within its pipeline
	// (counting executed stages, including inserted ones) — the same
	// index StageCtl.StageIndex reports.
	Seq int
	// Units describes the stage's settled units in task order. A
	// settled stage's units are all final and successful; a control
	// stage (no tasks) snapshots an empty list.
	Units []UnitSnapshot
}

// UnitSnapshot is one settled compute unit as a PostStage hook saw it:
// enough to rebuild a replay unit whose accessors answer as the
// original did.
type UnitSnapshot struct {
	Name   string
	Kernel string
	Params map[string]float64
	Cores  int
	MPI    bool
	Tags   []string
	// Start and Stop are the unit's exec window on the virtual clock.
	Start, Stop time.Duration
}

// CampaignCheckpoint is the resumable state of one campaign: every
// pipeline's latest barrier snapshot, in campaign submission order.
type CampaignCheckpoint struct {
	Pipelines []PipelineCheckpoint
}

// Pipeline returns the named pipeline's snapshot, nil if the pipeline
// never settled a stage.
func (cp *CampaignCheckpoint) Pipeline(name string) *PipelineCheckpoint {
	if cp == nil {
		return nil
	}
	for i := range cp.Pipelines {
		if cp.Pipelines[i].Name == name {
			return &cp.Pipelines[i]
		}
	}
	return nil
}

// Checkpoint file format, little-endian throughout:
//
//	[8]  magic "ENTKCKPT"
//	u32  version (currently 2)
//	u32  pipeline count, then per pipeline:
//	     string name (u32 length + bytes)
//	     u32 settled stages, u64 tasks, u64 retries, i64 overhead
//	     u32 phase count, then per phase:
//	       string name, i64 span, i64 busy, u64 tasks, u64 occurrences
//	     u32 hook-stage count (v2+), then per hook stage:
//	       u32 seq, u32 unit count, then per unit:
//	         string name, string kernel, u32 cores, u8 mpi,
//	         i64 start, i64 stop,
//	         u32 param count, per param: string key, f64 value (key order),
//	         u32 tag count, per tag: string
//	u8   trace flag: 1 = a profile dump ("ENTKPROF") follows, 0 = end
//
// Version 1 streams (pre hook-replay) still load: they simply carry no
// hook-stage snapshots, and a resume across a hook stage of such a
// checkpoint reports the missing replay data instead of silently
// running the wrong graph.
const (
	ckptMagic   = "ENTKCKPT"
	ckptVersion = 2
	// ckptMaxString/ckptMaxCount bound one string / one repeated section
	// so corrupted length fields fail cleanly instead of asking the
	// allocator for gigabytes.
	ckptMaxString = 1 << 20
	ckptMaxCount  = 1 << 24
)

// SaveCheckpoint serialises the checkpoint, then — when prof is non-nil —
// appends the profiler's full dump to the same stream. The profiler must
// be quiescent (save between runs, not mid-campaign).
func SaveCheckpoint(w io.Writer, cp *CampaignCheckpoint, prof *profile.Profiler) error {
	if cp == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	out := wire.NewWriter(w)
	out.Bytes([]byte(ckptMagic))
	out.U32(ckptVersion)
	out.U32(uint32(len(cp.Pipelines)))
	for _, pc := range cp.Pipelines {
		out.String(pc.Name)
		out.U32(uint32(pc.SettledStages))
		out.U64(uint64(pc.Tasks))
		out.U64(uint64(pc.Retries))
		out.U64(uint64(pc.PatternOverhead))
		out.U32(uint32(len(pc.Phases)))
		for _, ph := range pc.Phases {
			out.String(ph.Name)
			out.U64(uint64(ph.Span))
			out.U64(uint64(ph.Busy))
			out.U64(uint64(ph.Tasks))
			out.U64(uint64(ph.Occurrences))
		}
		out.U32(uint32(len(pc.HookStages)))
		for _, hs := range pc.HookStages {
			out.U32(uint32(hs.Seq))
			out.U32(uint32(len(hs.Units)))
			for _, us := range hs.Units {
				out.String(us.Name)
				out.String(us.Kernel)
				out.U32(uint32(us.Cores))
				out.U8(boolByte(us.MPI))
				out.U64(uint64(us.Start))
				out.U64(uint64(us.Stop))
				out.U32(uint32(len(us.Params)))
				// Key order keeps the serialisation deterministic (maps
				// iterate randomly).
				for _, k := range slices.Sorted(maps.Keys(us.Params)) {
					out.String(k)
					out.U64(math.Float64bits(us.Params[k]))
				}
				out.U32(uint32(len(us.Tags)))
				for _, tag := range us.Tags {
					out.String(tag)
				}
			}
		}
	}
	out.U8(boolByte(prof != nil))
	if _, err := out.Flush(); err != nil {
		return err
	}
	if prof != nil {
		if _, err := prof.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. When the
// stream carries a trace section, it is loaded into prof (which must be
// empty, either storage layout); a nil prof skips the trace. The
// trace-flag byte is consumed either way, so the checkpoint section
// alone round-trips regardless of what follows.
func LoadCheckpoint(r io.Reader, prof *profile.Profiler) (*CampaignCheckpoint, error) {
	in := wire.NewReader(r, "core: checkpoint", ckptMaxString)
	var magic [len(ckptMagic)]byte
	if in.Bytes(magic[:]); in.Err() == nil && string(magic[:]) != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	version := in.U32()
	if in.Err() == nil && (version < 1 || version > ckptVersion) {
		return nil, fmt.Errorf("core: checkpoint version %d, want 1-%d", version, ckptVersion)
	}
	cp := &CampaignCheckpoint{}
	for i, n := 0, in.Count(ckptMaxCount, "pipeline"); i < n && in.Err() == nil; i++ {
		pc := PipelineCheckpoint{
			Name:            in.String(),
			SettledStages:   int(in.U32()),
			Tasks:           int(in.U64()),
			Retries:         int(in.U64()),
			PatternOverhead: time.Duration(in.U64()),
		}
		for j, n := 0, in.Count(ckptMaxCount, "phase"); j < n && in.Err() == nil; j++ {
			pc.Phases = append(pc.Phases, PhaseStat{
				Name:        in.String(),
				Span:        time.Duration(in.U64()),
				Busy:        time.Duration(in.U64()),
				Tasks:       int(in.U64()),
				Occurrences: int(in.U64()),
			})
		}
		nHooks := 0
		if version >= 2 {
			nHooks = in.Count(ckptMaxCount, "hook-stage")
		}
		for h := 0; h < nHooks && in.Err() == nil; h++ {
			hs := StageSnapshot{Seq: int(in.U32())}
			for u, n := 0, in.Count(ckptMaxCount, "unit"); u < n && in.Err() == nil; u++ {
				us := UnitSnapshot{
					Name:   in.String(),
					Kernel: in.String(),
					Cores:  int(in.U32()),
					MPI:    in.U8() != 0,
					Start:  time.Duration(in.U64()),
					Stop:   time.Duration(in.U64()),
				}
				for k, n := 0, in.Count(ckptMaxCount, "param"); k < n && in.Err() == nil; k++ {
					key, bits := in.String(), in.U64()
					if us.Params == nil {
						us.Params = map[string]float64{}
					}
					us.Params[key] = math.Float64frombits(bits)
				}
				for k, n := 0, in.Count(ckptMaxCount, "tag"); k < n && in.Err() == nil; k++ {
					us.Tags = append(us.Tags, in.String())
				}
				hs.Units = append(hs.Units, us)
			}
			pc.HookStages = append(pc.HookStages, hs)
		}
		cp.Pipelines = append(cp.Pipelines, pc)
	}
	traced := in.U8() == 1
	if err := in.Err(); err != nil {
		return nil, err
	}
	if traced && prof != nil {
		// The trace section starts wherever the buffered reader stands;
		// hand the profiler the same reader so no bytes are lost.
		if _, err := prof.ReadFrom(in); err != nil {
			return cp, fmt.Errorf("core: checkpoint trace section: %w", err)
		}
	}
	return cp, nil
}
