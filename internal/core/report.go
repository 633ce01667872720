package core

import (
	"fmt"
	"strings"
	"time"
)

// PhaseStat aggregates one logical phase of a pattern (e.g. all
// simulations of cycle 3, or all stage-2 tasks).
type PhaseStat struct {
	// Name identifies the phase, e.g. "simulation", "exchange",
	// "stage.2". Repeats (per cycle/iteration) aggregate under one name.
	Name string
	// Span is the wall time from the first execution start to the last
	// execution stop, summed over the phase's occurrences.
	Span time.Duration
	// Busy is the cumulative execution time over all tasks of the phase.
	Busy time.Duration
	// Tasks is the number of tasks that executed in the phase.
	Tasks int
	// Occurrences counts how many times the phase ran (cycles).
	Occurrences int
}

// PilotUtilization is one pilot's share of a campaign: how many units
// the late-binding placement routed to it and how busy they kept its
// allocation over the campaign window. The utilization denominator is
// the campaign TTC, so a pilot that sat idle while another machine
// carried the campaign shows near-zero utilization.
type PilotUtilization struct {
	// Pilot is the pilot's runtime id (set order follows the spec list).
	Pilot int
	// Resource is the machine the pilot runs on.
	Resource string
	// Cores is the pilot size.
	Cores int
	// Tags are the pilot's affinity tags.
	Tags []string
	// Units is the number of units that executed on the pilot during
	// the campaign.
	Units int
	// CoreBusy is the core-weighted execution time those units consumed.
	CoreBusy time.Duration
	// QueueWait is this pilot's own batch queue wait (zero if it never
	// activated). Under the default wait-all gate every pilot's wait has
	// elapsed before the campaign starts; with ResourceSet.EagerSubmit
	// the per-pilot waits diverge from the campaign-level QueueWait,
	// which then reports only the earliest pilot's.
	QueueWait time.Duration
	// Utilization is CoreBusy over the pilot's capacity for the
	// campaign span (cores × campaign TTC), in [0, 1] up to launcher
	// and staging slack.
	Utilization float64
}

// Report is the TTC decomposition of one pattern execution, the data
// behind the paper's stacked-bar and scaling figures.
type Report struct {
	// Pattern is the pattern name.
	Pattern string
	// Resource is the machine label.
	Resource string
	// Cores is the pilot size used.
	Cores int
	// PlannedTasks is the static task plan (Pattern.TaskCount or
	// Pipeline.TaskCount before execution). Adaptive hooks
	// (AdaptiveSimulations, StopWhen, AdaptiveStop, PostStage) make the
	// executed count diverge from the plan in either direction.
	PlannedTasks int
	// Tasks is the number of tasks actually executed (first attempts;
	// retries are counted separately). This — not PlannedTasks — is the
	// number adaptive runs should report.
	Tasks int
	// Retries is the number of resubmitted task attempts.
	Retries int

	// TTC is the total time from Run start (pilot active) to pattern
	// completion.
	TTC time.Duration
	// CoreOverhead is the toolkit's constant overhead: initialisation
	// plus launching and cancelling the resource request (Fig. 3's "EnTK
	// Core overhead").
	CoreOverhead time.Duration
	// PatternOverhead is the time spent creating tasks and submitting
	// them to the runtime; it grows with the task count (Fig. 3's "EnTK
	// Pattern overhead").
	PatternOverhead time.Duration
	// QueueWait is the batch-queue wait of the pilot (resource wait, not
	// toolkit overhead).
	QueueWait time.Duration
	// AgentStartup is the pilot agent bootstrap time.
	AgentStartup time.Duration

	// Phases lists per-phase aggregates in first-occurrence order.
	Phases []PhaseStat
}

// Phase returns the aggregate for the named phase, or a zero PhaseStat.
func (r *Report) Phase(name string) PhaseStat {
	for _, p := range r.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStat{Name: name}
}

// ExecTime is the summed span of all phases: the application execution
// component of the TTC.
func (r *Report) ExecTime() time.Duration {
	var t time.Duration
	for _, p := range r.Phases {
		t += p.Span
	}
	return t
}

// String renders the report as the kind of table the paper's figures are
// drawn from.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern=%s resource=%s cores=%d tasks=%d retries=%d\n",
		r.Pattern, r.Resource, r.Cores, r.Tasks, r.Retries)
	fmt.Fprintf(&b, "  TTC               %12.2fs\n", r.TTC.Seconds())
	fmt.Fprintf(&b, "  core overhead     %12.2fs\n", r.CoreOverhead.Seconds())
	fmt.Fprintf(&b, "  pattern overhead  %12.2fs\n", r.PatternOverhead.Seconds())
	fmt.Fprintf(&b, "  queue wait        %12.2fs\n", r.QueueWait.Seconds())
	fmt.Fprintf(&b, "  agent startup     %12.2fs\n", r.AgentStartup.Seconds())
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  phase %-12s span %10.2fs  busy %10.2fs  tasks %5d  runs %3d\n",
			p.Name, p.Span.Seconds(), p.Busy.Seconds(), p.Tasks, p.Occurrences)
	}
	return b.String()
}

// phaseAccumulator collects phase occurrences during execution.
type phaseAccumulator struct {
	order []string
	byKey map[string]*PhaseStat
}

func newPhaseAccumulator() *phaseAccumulator {
	return &phaseAccumulator{byKey: make(map[string]*PhaseStat)}
}

// add records one occurrence of a phase.
func (a *phaseAccumulator) add(name string, span, busy time.Duration, tasks int) {
	st, ok := a.byKey[name]
	if !ok {
		st = &PhaseStat{Name: name}
		a.byKey[name] = st
		a.order = append(a.order, name)
	}
	st.Span += span
	st.Busy += busy
	st.Tasks += tasks
	st.Occurrences++
}

// merge folds already-aggregated phase stats into the accumulator under
// a prefix — how composite members and campaign pipelines appear in a
// parent report. Caller synchronises.
func (a *phaseAccumulator) merge(prefix string, phases []PhaseStat) {
	for _, ph := range phases {
		name := prefix + ph.Name
		st, ok := a.byKey[name]
		if !ok {
			st = &PhaseStat{Name: name}
			a.byKey[name] = st
			a.order = append(a.order, name)
		}
		st.Span += ph.Span
		st.Busy += ph.Busy
		st.Tasks += ph.Tasks
		st.Occurrences += ph.Occurrences
	}
}

// stats returns the aggregates in first-occurrence order.
func (a *phaseAccumulator) stats() []PhaseStat {
	out := make([]PhaseStat, 0, len(a.order))
	for _, name := range a.order {
		out = append(out, *a.byKey[name])
	}
	return out
}
