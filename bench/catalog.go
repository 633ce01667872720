package main

// The catalogue of metrics. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds for the driver;
// bench_test.go holds the two in step.

// metricDef is one catalogued metric. Bound is the share of the
// reference median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one child measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd metrics come from the untraced pass only and are emitted by
// every workload. What one "operation" is for the latency metrics: a
// served campaign on serve-closed, one repetition elsewhere (one sweep
// of the figures on paper-figs). real_overhead_ms_per_unit is wall per settled
// unit beyond what the unit's own work costs without the toolkit: the
// bare fork/exec loop on real-true, nothing in simulation.
var endToEnd = []metricDef{
	{"units_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"campaigns_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p95", "ms", "lower", 0.25},
	{"real_overhead_ms_per_unit", "ms", "lower", 0.25},
}

// perLayer metrics come from the traced pass: spans around calls into
// the layers, the workload's own report, isolated probes, runtime
// counters and the CPU profile. A metric a workload cannot observe
// reads 0 there.
var perLayer = []metricDef{
	{Name: "campaign.parse_us", Unit: "us", Better: "lower"},
	{Name: "campaign.validate_us", Unit: "us", Better: "lower"},
	{Name: "campaign.compile_us", Unit: "us", Better: "lower"},
	{Name: "campaign.doc_kb", Unit: "KB", Better: "lower"},
	{Name: "core.allocate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.deallocate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_us_per_unit", Unit: "us", Better: "lower"},
	{Name: "core.run_us_per_stage", Unit: "us", Better: "lower"},
	{Name: "core.self_us_per_unit", Unit: "us", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.trace_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.trace_kb_mean", Unit: "KB", Better: "lower"},
	{Name: "serve.lib_run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.state_kb_per_campaign", Unit: "KB", Better: "lower"},
	{Name: "serve.rss_kb_per_campaign", Unit: "KB", Better: "lower"},
	{Name: "serve.latency_slope_us_per_campaign", Unit: "us", Better: "lower"},
	{Name: "serve.peak_inflight", Unit: "count", Better: "higher"},
	{Name: "ttc.total_s", Unit: "s", Better: "lower"},
	{Name: "ttc.exec_s", Unit: "s", Better: "lower"},
	{Name: "ttc.pattern_ovh_s", Unit: "s", Better: "lower"},
	{Name: "ttc.core_ovh_s", Unit: "s", Better: "lower"},
	{Name: "ttc.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "ttc.agent_boot_s", Unit: "s", Better: "lower"},
	{Name: "vclock.sleep_wake_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.sleep_wake_spread_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.after_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.sem_handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.go_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.record_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.events_per_unit", Unit: "count", Better: "lower"},
	{Name: "profile.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "profile.snapshot_ms_per_mevent", Unit: "ms", Better: "lower"},
	{Name: "profile.writeto_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "profile.sumpairs_ms_per_mevent", Unit: "ms", Better: "lower"},
	{Name: "pilot.unit_us", Unit: "us", Better: "lower"},
	{Name: "pilot.unit_us_mpi4", Unit: "us", Better: "lower"},
	{Name: "pilot.submit_us_per_unit", Unit: "us", Better: "lower"},
	{Name: "pilot.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "pilot.waves", Unit: "count", Better: "lower"},
	{Name: "realtime.rununit_ms", Unit: "ms", Better: "lower"},
	{Name: "realtime.bare_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_unit", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_unit", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "runtime.sched_latency_us_p99", Unit: "us", Better: "lower"},
	{Name: "runtime.mutex_wait_s", Unit: "s", Better: "lower"},
	{Name: "cpu.vclock_share", Unit: "share", Better: "lower"},
	{Name: "cpu.pilot_share", Unit: "share", Better: "lower"},
	{Name: "cpu.core_share", Unit: "share", Better: "lower"},
	{Name: "cpu.profile_share", Unit: "share", Better: "lower"},
	{Name: "cpu.campaign_share", Unit: "share", Better: "lower"},
	{Name: "cpu.serve_share", Unit: "share", Better: "lower"},
	{Name: "cpu.realtime_share", Unit: "share", Better: "lower"},
	{Name: "cpu.sched_share", Unit: "share", Better: "lower"},
	{Name: "cpu.gc_share", Unit: "share", Better: "lower"},
	{Name: "cpu.syscall_share", Unit: "share", Better: "lower"},
	{Name: "cpu.other_share", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.reps", Unit: "count", Better: "higher"},
	{Name: "bench.rep_spread_pct", Unit: "%", Better: "lower"},
}
