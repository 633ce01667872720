package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 20}, {50, 30}, {75, 40}, {95, 48}, {100, 50}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSpreadPct(t *testing.T) {
	// Quartiles of 10..50 are 20 and 40 around a median of 30.
	if got := spreadPct([]float64{10, 20, 30, 40, 50}); !near(got, 100*20.0/30) {
		t.Errorf("spreadPct = %v, want %v", got, 100*20.0/30)
	}
	// Fewer than four samples: the whole range.
	if got := spreadPct([]float64{9, 10, 11}); !near(got, 20) {
		t.Errorf("spreadPct of three = %v, want 20", got)
	}
	if got := spreadPct([]float64{5}); got != 0 {
		t.Errorf("spreadPct of one = %v, want 0", got)
	}
}

func TestIndexSlope(t *testing.T) {
	if got := indexSlope([]float64{1, 3, 5, 7, 9}); !near(got, 2) {
		t.Errorf("slope of 1,3,5,7,9 = %v, want 2", got)
	}
	if got := indexSlope([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("slope of a stationary series = %v, want 0", got)
	}
	// Least squares, not end-to-end: one outlier tilts, it does not define.
	if got := indexSlope([]float64{0, 0, 0, 10}); !near(got, 3) {
		t.Errorf("slope of 0,0,0,10 = %v, want 3", got)
	}
	if got := indexSlope([]float64{5}); got != 0 {
		t.Errorf("slope of one sample = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "rep", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "b", StartUS: 30, EndUS: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartUS: 90, EndUS: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a.child", StartUS: 15, EndUS: 20},
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 100 - (50 + 10), // a and b cover 10..60 once, c covers 90..100
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := durations(spans, "b"); !reflect.DeepEqual(got, []float64{30}) {
		t.Errorf("durations(b) = %v, want [30]", got)
	}
}

func TestTracerLinksSpans(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(0)
	off.nextRep()

	tr := newTracer()
	tr.nextRep()
	root := tr.start("rep", 0)
	child := tr.start("core.run", root)
	tr.end(child)
	tr.end(root)
	tr.nextRep()
	tr.end(tr.start("rep", 0))
	spans := tr.all()
	if len(spans) != 3 || spans[1].Parent != root || spans[0].Rep != 1 || spans[1].Rep != 1 || spans[2].Rep != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.EndUS < s.StartUS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"entk/internal/vclock.(*handoffEngine).park": "vclock",
		"entk/internal/pilot.(*agent).executeUnit":   "pilot",
		"entk/internal/core.(*executor).runTasksVia": "core",
		"entk/internal/profile.(*Profiler).RecordID": "profile",
		"entk/internal/campaign.Parse":               "campaign",
		"entk/internal/serve.(*Orchestrator).settle": "serve",
		"entk/internal/realtime.(*Executor).RunUnit": "realtime",
		"entk/internal/kernels.(*Registry).Duration": "other",
		"runtime.gopark":                      "sched",
		"runtime.chanrecv":                    "sched",
		"runtime.futex":                       "sched",
		"runtime.mallocgc":                    "gc",
		"runtime.scanobject":                  "gc",
		"runtime.gcBgMarkWorker":              "gc",
		"runtime.nanotime":                    "other",
		"syscall.Syscall6":                    "syscall",
		"internal/runtime/syscall.Syscall6":   "syscall",
		"os.(*File).Write":                    "syscall",
		"os/exec.(*Cmd).Start":                "other",
		"encoding/json.(*decodeState).object": "other",
		"internal/sync.(*Mutex).Unlock":       "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

func TestBucketOfStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"internal/sync.(*Mutex).Unlock", "entk/internal/pilot.(*agent).executeUnit", "entk/internal/core.x"}, "pilot"},
		{[]string{"runtime.gopark", "entk/internal/vclock.(*handoffEngine).park"}, "sched"}, // the leaf decides
		{[]string{"runtime.nanotime", "runtime.schedule"}, "other"},
		{[]string{"aeshashbody", "runtime.mapaccess2", "entk/internal/profile.(*interner).intern"}, "profile"},
		{nil, "other"},
	} {
		if got := bucketOfStack(c.frames); got != c.want {
			t.Errorf("bucketOfStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestBucketShares(t *testing.T) {
	shares, total := bucketShares([]stackSample{
		{[]string{"entk/internal/vclock.(*wheel).fire"}, 3},
		{[]string{"runtime.gopark"}, 5},
		{[]string{"fmt.Sprintf"}, 2},
	})
	if total != 10 || !near(shares["vclock"], 0.3) || !near(shares["sched"], 0.5) || !near(shares["other"], 0.2) {
		t.Errorf("shares = %v of %d", shares, total)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares, total := bucketShares(nil); total != 0 || shares["other"] != 0 {
		t.Errorf("empty profile: shares %v of %d", shares, total)
	}
}

// pb builds protobuf messages for the decoder test.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
	return p
}

func (p *pb) bytesField(num int, b []byte) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
	return p
}

func TestDecodeProfile(t *testing.T) {
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	line := func(fn uint64) []byte { return new(pb).varint(1, fn).varint(2, 42).Bytes() }
	var prof pb
	// Strings: 0 "", 1 leaf, 2 inlined-into, 3 root.
	for _, s := range []string{"", "runtime.gopark", "entk/internal/vclock.(*handoffEngine).park", "main.main"} {
		prof.bytesField(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 1, 2: 2, 3: 3} {
		prof.bytesField(5, new(pb).varint(1, id).varint(2, name).Bytes())
	}
	// Location 1 holds gopark inlined into park; location 2 is main.
	prof.bytesField(4, new(pb).varint(1, 1).bytesField(4, line(1)).bytesField(4, line(2)).Bytes())
	prof.bytesField(4, new(pb).varint(1, 2).bytesField(4, line(3)).Bytes())
	// One sample with packed fields, one with unpacked ones.
	prof.bytesField(2, new(pb).bytesField(1, packed(1, 2)).bytesField(2, packed(7, 70000000)).Bytes())
	prof.bytesField(2, new(pb).varint(1, 2).varint(2, 3).varint(2, 30000000).Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	got, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"runtime.gopark", "entk/internal/vclock.(*handoffEngine).park", "main.main"}, 7},
		{[]string{"main.main"}, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decodeProfile = %+v, want %+v", got, want)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestCompareColumnsNamesTheColumn(t *testing.T) {
	exp := &expectedDoc{
		Columns:  map[string]map[string]float64{"w": {"tasks": 10, "ttc_s": 100}},
		Tolerant: map[string]map[string]float64{"w": {"ttc_s": 0.01}},
	}
	if bad := compareColumns("w", map[string]float64{"tasks": 10, "ttc_s": 100.5}, exp); len(bad) != 0 {
		t.Errorf("within tolerance, yet: %v", bad)
	}
	bad := compareColumns("w", map[string]float64{"tasks": 11, "ttc_s": 102, "extra": 1}, exp)
	if len(bad) != 3 {
		t.Fatalf("want three mismatches, got %v", bad)
	}
	joined := strings.Join(bad, "\n")
	for _, col := range []string{"column tasks = 11, want exactly 10", "column ttc_s = 102", "column extra"} {
		if !strings.Contains(joined, col) {
			t.Errorf("mismatch report does not name %q:\n%s", col, joined)
		}
	}
	if bad := compareColumns("w", map[string]float64{"tasks": 10}, exp); len(bad) != 1 || !strings.Contains(bad[0], "ttc_s missing") {
		t.Errorf("missing column not reported: %v", bad)
	}
}

func TestFlatten(t *testing.T) {
	type row struct {
		N   int
		Sec float64
		Tag string
	}
	out := make(map[string]float64)
	if err := flatten("fig", struct{ Rows []row }{[]row{{1, 2.5, "x"}, {3, 4.5, "y"}}}, out); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"fig.Rows.0.N": 1, "fig.Rows.0.Sec": 2.5, "fig.Rows.1.N": 3, "fig.Rows.1.Sec": 4.5}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("flatten = %v, want %v", out, want)
	}
}

// TestCatalogueMatchesBenchmarkJSON holds the Go catalogue and the
// driver's contract file in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, catalogue %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n go   %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n go   %+v", doc.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is catalogued twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestQuickSmoke runs every workload at 1/64 scale through both passes,
// in process: no operation may fail, and every catalogued metric must
// be emitted. It asserts nothing about values that depend on
// same-instant ordering.
func TestQuickSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("the workloads run 10-20x slower under the race detector; the layers' own -race suites cover them")
	}
	if testing.Short() {
		t.Skip("five workloads, two passes: not short")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, det, err := runChild(childOpts{workload: w.name, seed: 1, quick: true,
					traced: traced, scratch: t.TempDir(), out: &out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || det.Info["failed_share"] != 0 {
					t.Errorf("failed %d of %d: %v", res.Failed, res.Attempted, det.Problems)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d catalogued", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s in %q, catalogue says %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", m.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				// The last line is the result object, exactly four keys.
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
					t.Errorf("last line is not the result object: %v %s", err, lines[len(lines)-1])
				}
				if !traced {
					return
				}
				if len(det.Spans) == 0 {
					t.Fatal("traced pass recorded no spans")
				}
				ids := make(map[int]bool)
				linked := false
				for _, s := range det.Spans {
					ids[s.ID] = true
				}
				for _, s := range det.Spans {
					if s.Parent != 0 {
						linked = true
						if !ids[s.Parent] {
							t.Errorf("span %d (%s) names a parent %d that does not exist", s.ID, s.Name, s.Parent)
						}
					}
					if s.Rep < 1 {
						t.Errorf("span %d (%s) belongs to no repetition", s.ID, s.Name)
					}
				}
				if !linked {
					t.Error("no span has a parent")
				}
				if det.Info["cpu_samples"] > 0 {
					sum := 0.0
					for _, b := range cpuBuckets {
						sum += res.Metrics["cpu."+b+"_share"].Value
					}
					if math.Abs(sum-1) > 0.01 {
						t.Errorf("cpu shares sum to %v", sum)
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := runChild(childOpts{workload: "nope", out: io.Discard}); err == nil {
		t.Error("an unknown workload ran")
	}
}
