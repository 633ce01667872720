package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entk/internal/profile"
	"entk/internal/vclock"
)

// marshal renders a campaign back to JSON; the fuzz target uses it to
// prove accepted campaigns re-parse from their own serialisation.
func marshal(c *Campaign) ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// goldenFixtures drives the golden-trace regression tier: each fixture
// campaign's full trace is pinned by testdata/<fixture>.trace.
var goldenFixtures = []string{"demo-pipeline", "demo-multipilot"}

func goldenFile(fixture string) string {
	return filepath.Join("testdata", fixture+".trace")
}

func loadFixture(t *testing.T, name string) *Campaign {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenTraces replays the fixture campaigns and diffs their
// traces against the committed goldens. Regenerate with:
//
//	ENTK_REGEN_GOLDEN=1 go test ./internal/campaign -run TestGoldenTraces
func TestGoldenTraces(t *testing.T) {
	regen := os.Getenv("ENTK_REGEN_GOLDEN") != ""
	for _, fixture := range goldenFixtures {
		c := loadFixture(t, fixture)
		path := goldenFile(fixture)
		if regen {
			res, err := Run(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteGolden(path, res.Prof); err != nil {
				t.Fatal(err)
			}
			t.Logf("recorded %s (%d events)", path, res.Prof.EventCount())
			continue
		}
		want, err := LoadGolden(path)
		if err != nil {
			t.Fatalf("%v (regenerate with ENTK_REGEN_GOLDEN=1)", err)
		}
		t.Run(fixture, func(t *testing.T) {
			res, err := Run(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if diffs := DiffTraces(res.Prof, want); len(diffs) > 0 {
				t.Errorf("trace diverges from golden:\n%s", RenderDiffs(diffs, 3))
			}
		})
	}
}

// TestBrokenGoldenDiff is the negative control the acceptance criteria
// call for: a golden with one event renamed (exec_stop -> exec_halt,
// same byte length, patched directly in the dump's name table) must
// fail the check, and the rendered diff must name the divergent event
// inside a per-entity timeline.
func TestBrokenGoldenDiff(t *testing.T) {
	raw, err := os.ReadFile(goldenFile("demo-pipeline"))
	if err != nil {
		t.Fatalf("%v (regenerate with ENTK_REGEN_GOLDEN=1)", err)
	}
	patched := bytes.Replace(raw, []byte("exec_stop"), []byte("exec_halt"), 1)
	if bytes.Equal(patched, raw) {
		t.Fatal("golden carries no exec_stop event to break")
	}
	want := profile.New(vclock.NewVirtual())
	if _, err := want.ReadFrom(bytes.NewReader(patched)); err != nil {
		t.Fatalf("patched golden no longer loads: %v", err)
	}

	c := loadFixture(t, "demo-pipeline")
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffs := DiffTraces(res.Prof, want)
	if len(diffs) == 0 {
		t.Fatal("broken golden passed the check")
	}
	rendered := RenderDiffs(diffs, 5)
	if !strings.Contains(rendered, "exec_halt") || !strings.Contains(rendered, "exec_stop") {
		t.Errorf("rendered diff does not name the divergent event:\n%s", rendered)
	}
	if !strings.Contains(rendered, "entity ") || !strings.Contains(rendered, "!") {
		t.Errorf("rendered diff lacks the per-entity timeline marker:\n%s", rendered)
	}
}

// TestGoldenRoundTrip pins WriteGolden/LoadGolden as a lossless pair:
// a reloaded golden diffs clean against its source.
func TestGoldenRoundTrip(t *testing.T) {
	c := loadFixture(t, "demo-pipeline")
	res, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.trace")
	if err := WriteGolden(path, res.Prof); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.EventCount() != res.Prof.EventCount() {
		t.Errorf("reloaded %d events, want %d", back.EventCount(), res.Prof.EventCount())
	}
	if diffs := DiffTraces(res.Prof, back); len(diffs) > 0 {
		t.Errorf("round trip diverges:\n%s", RenderDiffs(diffs, 3))
	}
}

// FuzzCampaignSchema feeds arbitrary bytes to the strict parser: it
// must never panic, and whatever it accepts must compile and survive a
// marshal -> re-parse round trip (the schema prints what it parses).
func FuzzCampaignSchema(f *testing.F) {
	f.Add([]byte(validGraphJSON))
	f.Add([]byte(parityJSON))
	f.Add([]byte(`{"resource": "xsede.comet", "cores": 48,
	  "pattern": {"type": "sal", "iterations": 2, "simulations": 4, "analyses": 1,
	    "simulation": {"name": "misc.sleep", "params": {"seconds": 5}},
	    "analysis": {"name": "misc.ccount", "params": {"size_mb": 1}}}}`))
	f.Add([]byte(`{"name": "labelled", "resource": "xsede.comet", "cores": 4,
	  "pattern": {"type": "eop", "pipelines": 2, "stages": [{"name": "misc.sleep"}]}}`))
	f.Add([]byte(`{"coers": 48}`))
	f.Add([]byte(`[1, 2`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted campaigns must compile without panicking...
		_ = c.Specs()
		_ = c.PlacementPolicy()
		_ = c.GraphPipelines()
		_ = c.LegacyPattern()
		// ...and re-parse from their own serialisation.
		out, err := marshal(c)
		if err != nil {
			t.Fatalf("accepted campaign fails to marshal: %v", err)
		}
		if _, err := Parse(bytes.NewReader(out)); err != nil {
			t.Fatalf("marshalled campaign fails to re-parse: %v\n%s", err, out)
		}
	})
}
