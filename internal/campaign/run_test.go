package campaign

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"entk"
)

// parityJSON is the declarative form of the campaign parityPipelines
// constructs in Go; TestRunDeclarativeParity pins the two to identical
// reports.
const parityJSON = `{
  "resources": [
    {"resource": "xsede.comet", "cores": 48, "walltime_min": 120},
    {"resource": "xsede.stampede", "cores": 64, "walltime_min": 120, "tags": ["mpi"]}
  ],
  "placement": "tag_affinity",
  "runtime": {"max_retries": 1},
  "pipelines": [
    {"name": "md", "stages": [
      {"name": "sim", "tasks": [
        {"name": "eq", "count": 8, "kernel": {"name": "misc.sleep", "params": {"seconds": 30}}}
      ]},
      {"name": "exch", "streamed": true, "tasks": [
        {"kernel": {"name": "misc.sleep", "params": {"seconds": 10}, "cores": 16, "mpi": true, "tags": ["mpi"]}}
      ]}
    ]},
    {"name": "ana", "stages": [
      {"tasks": [
        {"name": "scan", "count": 4, "retries": 2, "kernel": {"name": "misc.ccount", "params": {"size_mb": 20}}}
      ]}
    ]}
  ]
}`

// parityPipelines is the hand-written equivalent of parityJSON.
func parityPipelines() []*entk.Pipeline {
	sleep := func(sec float64) *entk.Kernel {
		return &entk.Kernel{Name: "misc.sleep", Params: map[string]float64{"seconds": sec}}
	}
	simTasks := make([]entk.Task, 8)
	for i := range simTasks {
		simTasks[i] = entk.Task{Name: "eq." + []string{"0001", "0002", "0003", "0004", "0005", "0006", "0007", "0008"}[i],
			Kernel: sleep(30)}
	}
	exch := sleep(10)
	exch.Cores, exch.MPI, exch.Tags = 16, true, []string{"mpi"}
	anaTasks := make([]entk.Task, 4)
	for i := range anaTasks {
		anaTasks[i] = entk.Task{Name: "scan." + []string{"0001", "0002", "0003", "0004"}[i],
			Retries: 2,
			Kernel:  &entk.Kernel{Name: "misc.ccount", Params: map[string]float64{"size_mb": 20}}}
	}
	return []*entk.Pipeline{
		{Name: "md", Stages: []*entk.Stage{
			{Name: "sim", Tasks: simTasks},
			{Name: "exch", Tasks: []entk.Task{{Kernel: exch}}, Streamed: true},
		}},
		{Name: "ana", Stages: []*entk.Stage{
			{Tasks: anaTasks},
		}},
	}
}

// TestRunDeclarativeParity gates the lowering: running the JSON
// campaign through the driver must produce the identical campaign
// report — TTC, overheads, phases, pilot rows, everything — as the
// equivalent Go-constructed campaign on an identically configured
// binding. The declarative layer adds vocabulary, not semantics.
func TestRunDeclarativeParity(t *testing.T) {
	c, err := Parse(strings.NewReader(parityJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatalf("declarative run: %v", err)
	}

	v := entk.NewClock()
	rs, err := entk.NewResourceSet([]entk.PilotSpec{
		{Resource: "xsede.comet", Cores: 48, Walltime: 120 * time.Minute},
		{Resource: "xsede.stampede", Cores: 64, Walltime: 120 * time.Minute, Tags: []string{"mpi"}},
	}, entk.Config{Clock: v, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs.Placement = entk.PlaceTagAffinity(nil)
	var want *entk.CampaignReport
	v.Run(func() {
		if err := rs.Allocate(); err != nil {
			t.Fatal(err)
		}
		var err error
		want, err = entk.NewAppManager(rs).Run(parityPipelines()...)
		if err != nil {
			t.Fatalf("Go-constructed run: %v", err)
		}
		rs.Deallocate()
	})

	if !reflect.DeepEqual(res.Campaign, want) {
		t.Errorf("declarative report diverges from Go-constructed:\ngot  %+v\nwant %+v",
			res.Campaign, want)
	}
}

// TestRunLegacyPattern keeps the classic pattern path of the runner
// alive: an eop description executes and reports the full task count.
func TestRunLegacyPattern(t *testing.T) {
	const legacy = `{
	  "resource": "xsede.comet", "cores": 24, "walltime_min": 60,
	  "pattern": {"type": "eop", "pipelines": 6, "stages": [
	    {"name": "misc.mkfile", "params": {"size_mb": 10}},
	    {"name": "misc.ccount", "params": {"size_mb": 10}}
	  ]}
	}`
	c, err := Parse(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Campaign != nil {
		t.Fatalf("pattern campaign: Report=%v Campaign=%v", res.Report, res.Campaign)
	}
	if res.Report.Tasks != 12 {
		t.Errorf("tasks = %d, want 12", res.Report.Tasks)
	}
	if res.Prof == nil || res.Prof.EventCount() == 0 {
		t.Error("run returned no trace")
	}
	if !strings.Contains(res.Summary(), "pattern=") {
		t.Errorf("summary misses the report table: %q", res.Summary())
	}
}

// TestCheckAssertsOnRun drives the assertion kinds against a real
// trace: the passing set is empty-failure, each failing spec reports
// with the entity timeline attached.
func TestCheckAssertsOnRun(t *testing.T) {
	c, err := Parse(strings.NewReader(parityJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}

	pass := []AssertSpec{
		{Entity: "unit.", Name: "exec_start", Kind: "exists"},
		// 8 sim + 1 exch + 4 ana first attempts; retries would add more,
		// but misc kernels don't fail here.
		{Entity: "unit.", Name: "exec_start", Kind: "count", Count: 13},
		{Entity: "unit.", Name: "never_recorded", Kind: "absent"},
		{Entity: "core", Name: "run_start", Kind: "order", Before: "run_stop"},
		{Entity: "unit.", Kind: "span_max", Start: "exec_start", Stop: "exec_stop", MaxMS: 1e9},
		{Entity: "unit.", Kind: "sum_max", Start: "exec_start", Stop: "exec_stop", MaxMS: 1e9},
	}
	if fails := CheckAsserts(res.Prof, pass); len(fails) != 0 {
		t.Fatalf("passing specs failed: %v", fails)
	}

	failing := []AssertSpec{
		{Entity: "unit.", Name: "exec_start", Kind: "count", Count: 99},
		{Entity: "core", Name: "run_stop", Kind: "order", Before: "run_start"},
		{Entity: "unit.", Name: "exec_start", Kind: "absent"},
		{Entity: "unit.", Kind: "span_max", Start: "exec_start", Stop: "exec_stop", MaxMS: 0.001},
	}
	fails := CheckAsserts(res.Prof, failing)
	if len(fails) != len(failing) {
		t.Fatalf("failures = %d, want %d: %v", len(fails), len(failing), fails)
	}
	if !strings.Contains(fails[0].Msg, "count = 13") {
		t.Errorf("count failure msg = %q", fails[0].Msg)
	}
	if !strings.Contains(fails[0].Timeline, "entity unit.") ||
		!strings.Contains(fails[0].Timeline, "exec_start") {
		t.Errorf("failure timeline lacks evidence:\n%s", fails[0].Timeline)
	}
}
