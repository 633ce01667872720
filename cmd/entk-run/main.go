// Command entk-run executes an ensemble campaign described by a JSON
// file, for experimenting with workloads without writing Go:
//
//	entk-run campaign.json
//
// The description names resources and a workload. Resources are either
// the legacy single-pilot triple (resource/cores/walltime_min at the
// top level) or a "resources" list of pilots with an optional
// "placement" policy (round_robin, least_loaded, tag_affinity, or
// tag_affinity+least_loaded). The workload is either an explicit
// pipelines/stages/tasks graph:
//
//	{
//	  "resources": [
//	    {"resource": "xsede.comet", "cores": 48, "walltime_min": 120},
//	    {"resource": "xsede.stampede", "cores": 64, "walltime_min": 120, "tags": ["mpi"]}
//	  ],
//	  "placement": "tag_affinity",
//	  "pipelines": [
//	    {"name": "md", "stages": [
//	      {"name": "sim", "tasks": [
//	        {"name": "eq", "count": 16,
//	         "kernel": {"name": "misc.sleep", "params": {"seconds": 60}}}
//	      ]}
//	    ]}
//	  ]
//	}
//
// or one of the classic patterns under "pattern": "eop" with
// "pipelines" and "stages"; "ee" with "replicas", "cycles",
// "simulation", "exchange" (and optional "pairwise": true); "sal" with
// "iterations", "simulations", "analyses", "simulation", "analysis".
// Task entries take "count" (replica expansion), "retries", and
// kernel-level "cores"/"mpi"/"tags"; stages take "streamed". Unknown
// fields are rejected with their line number.
//
// Beyond printing the report, the runner checks campaign semantics
// against recorded evidence:
//
//	entk-run -record golden.trace campaign.json   # persist the run's trace
//	entk-run -check golden.trace campaign.json    # diff the run against it
//	entk-run -assert asserts.json campaign.json   # declarative trace assertions
//
// -check exits nonzero on divergence, rendering the differing entities'
// virtual-time timelines side by side; -assert does the same for unmet
// expectations.
//
// -mode=real executes the same campaign file for real on the wall
// clock: kernels carrying an "executable" (plus "args") run as local OS
// processes with stdout/stderr captured under -outdir, kernels without
// one sleep their modelled durations, and the report is the same table
// over wall-clock instants. Real mode is not bit-reproducible, so
// -record/-check are rejected; see examples/realmode and DESIGN.md ("realtime").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"entk/internal/campaign"
	"entk/internal/realtime"
)

// The original runner's JSON types survive as aliases of the campaign
// schema: descriptions written against the old single-pilot pattern
// form parse unchanged.
type (
	kernelJSON  = campaign.Kernel
	patternJSON = campaign.Pattern
	appJSON     = campaign.Campaign
)

func main() {
	log.SetFlags(0)
	var (
		record  = flag.String("record", "", "write the run's trace to this golden file")
		check   = flag.String("check", "", "diff the run's trace against this golden file")
		asserts = flag.String("assert", "", "check the run's trace against this assertion spec file")
		mode    = flag.String("mode", "sim", "execution mode: sim (virtual time) or real (wall clock, kernels with an executable run as OS processes)")
		outdir  = flag.String("outdir", "", "real mode: directory for per-unit stdout/stderr captures (default: a fresh temp dir)")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: entk-run [flags] <campaign.json>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)

	var opts campaign.Options
	var err error
	if opts.Mode, err = campaign.ParseMode(*mode); err != nil {
		log.Fatalf("entk-run: %v", err)
	}
	if opts.Mode == campaign.ModeReal {
		// Golden-trace tooling pins bit-reproducible virtual timelines;
		// wall-clock instants can never match them (see DESIGN.md, "realtime").
		if *record != "" || *check != "" {
			log.Fatalf("entk-run: -record/-check are sim-only (real mode is not bit-reproducible)")
		}
		opts.Dir = *outdir
		ex, err := realtime.New(realtime.Config{Dir: opts.Dir})
		if err != nil {
			log.Fatalf("entk-run: %v", err)
		}
		defer ex.Close()
		opts.Runner = ex
		fmt.Fprintf(os.Stderr, "entk-run: real mode, unit output under %s\n", ex.Dir())
	}

	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("entk-run: %v", err)
	}
	c, err := campaign.Parse(f)
	f.Close()
	if err != nil {
		log.Fatalf("entk-run: %s: %v", path, err)
	}

	res, err := campaign.Run(c, opts)
	if err != nil {
		log.Fatalf("entk-run: %v", err)
	}
	fmt.Print(res.Summary())

	fail := false
	if *asserts != "" {
		af, err := os.Open(*asserts)
		if err != nil {
			log.Fatalf("entk-run: %v", err)
		}
		specs, err := campaign.ParseAsserts(af)
		af.Close()
		if err != nil {
			log.Fatalf("entk-run: %s: %v", *asserts, err)
		}
		fails := campaign.CheckAsserts(res.Prof, specs)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, f)
		}
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "entk-run: %d of %d assertions failed\n", len(fails), len(specs))
			fail = true
		}
	}
	if *check != "" {
		want, err := campaign.LoadGolden(*check)
		if err != nil {
			log.Fatalf("entk-run: %v", err)
		}
		if diffs := campaign.DiffTraces(res.Prof, want); len(diffs) > 0 {
			fmt.Fprint(os.Stderr, campaign.RenderDiffs(diffs, 5))
			fmt.Fprintf(os.Stderr, "entk-run: trace diverges from golden %s on %d entities\n",
				*check, len(diffs))
			fail = true
		}
	}
	if *record != "" {
		if err := campaign.WriteGolden(*record, res.Prof); err != nil {
			log.Fatalf("entk-run: %v", err)
		}
		fmt.Fprintf(os.Stderr, "entk-run: recorded %d events to %s\n",
			res.Prof.EventCount(), *record)
	}
	if fail {
		os.Exit(1)
	}
}
