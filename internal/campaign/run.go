// Execution driver: compile a campaign, stand up the binding on a
// fresh virtual clock, and run it to completion. The driver is what
// cmd/entk-run and the golden-trace tests share, so a trace recorded
// by the CLI and one recorded by a test are produced by the same code
// path.

package campaign

import (
	"fmt"
	"strings"

	"entk"
	"entk/internal/profile"
	"entk/internal/realtime"
)

// Options selects the execution substrate for one run. The zero value
// is the default: a simulation on a fresh virtual clock.
type Options struct {
	// Mode selects simulated (default) or real execution. Real mode runs
	// the identical campaign on the wall clock: kernels with an
	// "executable" exec as OS processes, the rest sleep their modelled
	// durations.
	Mode Mode
	// Dir receives real-mode per-unit output captures; empty means a
	// fresh temporary directory. Sim mode ignores it.
	Dir string
	// Runner overrides the real-mode unit runner (the service shares one
	// across pools); nil makes Run construct and close its own local
	// process executor.
	Runner entk.UnitRunner
}

// Mode selects the execution substrate: discrete-event simulation or
// real execution on the wall clock.
type Mode int

const (
	// ModeSim is the default: virtual time, bit-reproducible.
	ModeSim Mode = iota
	// ModeReal executes on the wall clock via a UnitRunner.
	ModeReal
)

func (m Mode) String() string {
	if m == ModeReal {
		return "real"
	}
	return "sim"
}

// ParseMode maps a CLI selector to an execution mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sim":
		return ModeSim, nil
	case "real":
		return ModeReal, nil
	}
	return 0, fmt.Errorf("campaign: unknown mode %q (want sim or real)", s)
}

// NewClock returns the clock a run with these options executes on: a
// virtual clock, or the wall clock in real mode.
func (o Options) NewClock() entk.Clock {
	if o.Mode == ModeReal {
		return entk.NewWallClock()
	}
	return entk.NewClock()
}

// Result is one campaign execution: the report for whichever workload
// form ran, plus the session profiler holding the full event trace.
type Result struct {
	// Campaign is set for graph-form campaigns (pipelines).
	Campaign *entk.CampaignReport
	// Report is set for pattern-form campaigns (eop/ee/sal).
	Report *entk.Report
	// Prof is the run's profiler; feed it to CheckAsserts, DiffTraces,
	// or WriteGolden.
	Prof *profile.Profiler
}

// Summary renders the run for the terminal: the classic report table
// for pattern campaigns; the campaign table plus per-pipeline and
// per-pilot rows for graph campaigns.
func (r *Result) Summary() string {
	if r.Report != nil {
		return r.Report.String()
	}
	if r.Campaign == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(r.Campaign.Campaign.String())
	for _, pr := range r.Campaign.Pipelines {
		fmt.Fprintf(&b, "pipeline %-12s tasks=%-5d retries=%-3d TTC %10.2fs\n",
			pr.Pattern, pr.Tasks, pr.Retries, pr.TTC.Seconds())
	}
	for _, pu := range r.Campaign.Pilots {
		fmt.Fprintf(&b, "pilot %d %-18s cores=%-4d units=%-5d busy %10.2fs util %5.1f%%\n",
			pu.Pilot, pu.Resource, pu.Cores, pu.Units, pu.CoreBusy.Seconds(), 100*pu.Utilization)
	}
	return b.String()
}

// Config builds the core configuration a run of this campaign uses on
// clock v: runtime defaults, the real-mode runner from opts, and the
// campaign's own knobs (retry budget). Run and the service's
// orchestrator share it, so an HTTP-submitted campaign executes on
// exactly the substrate a library run would construct.
func (c *Campaign) Config(v entk.Clock, opts Options) entk.Config {
	cfg := entk.Config{Clock: v}
	// Core only fills runtime defaults for a wholly-zero Runtime, so
	// start from the defaults before installing the runner.
	cfg.Runtime = entk.DefaultRuntimeConfig()
	if opts.Mode == ModeReal {
		cfg.Runtime.Runner = opts.Runner
	}
	if c.Runtime != nil {
		cfg.MaxRetries = c.Runtime.MaxRetries
	}
	return cfg
}

// Bind compiles the campaign's resource section onto clock v: a
// ResourceSet with the campaign's pilots, placement policy, and config.
func (c *Campaign) Bind(v entk.Clock, opts Options) (*entk.ResourceSet, error) {
	rs, err := entk.NewResourceSet(c.Specs(), c.Config(v, opts))
	if err != nil {
		return nil, err
	}
	if pol := c.PlacementPolicy(); pol != nil {
		rs.Placement = pol
	}
	return rs, nil
}

// Run executes a validated campaign on a fresh clock and binding. A
// failing workload still returns the Result alongside the error — the
// trace evidence of a failed run is exactly what post-mortem assertion
// checks want.
func Run(c *Campaign, opts Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opts.Mode == ModeReal && opts.Runner == nil {
		ex, err := realtime.New(realtime.Config{Dir: opts.Dir})
		if err != nil {
			return nil, err
		}
		defer ex.Close()
		opts.Runner = ex
	}
	v := opts.NewClock()
	rs, err := c.Bind(v, opts)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var runErr error
	v.Run(func() {
		if runErr = rs.Allocate(); runErr != nil {
			return
		}
		defer rs.Deallocate()
		if c.Pattern != nil {
			res.Report, runErr = rs.Run(c.LegacyPattern())
		} else {
			res.Campaign, runErr = entk.NewAppManager(rs).Run(c.GraphPipelines()...)
		}
	})
	res.Prof = rs.Session().Prof
	return res, runErr
}
