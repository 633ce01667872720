package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"entk/internal/campaign"
)

// declarativeExample is the committed two-machine example campaign —
// the same file the e2e CI smoke submits through entk-cli.
const declarativeExample = "../../examples/declarative/campaign.json"

// TestServeLibraryParity is the service↔library acceptance gate: the
// example campaign submitted over HTTP against a loopback daemon must
// yield a report byte-identical to the same JSON run via campaign.Run.
// This holds because a fresh pool's first campaign replays the library
// driver's exact sequence (Bind → Allocate → AppManager.Run from t=0) —
// the service layer adds no virtual-time perturbation. The subtest is
// named for the clock engine it runs on, as in the earlier engine
// matrix.
func TestServeLibraryParity(t *testing.T) {
	t.Run("handoff", testServeLibraryParity)
}

func testServeLibraryParity(t *testing.T) {
	raw, err := os.ReadFile(declarativeExample)
	if err != nil {
		t.Fatal(err)
	}
	// Library run.
	c, err := campaign.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		t.Fatalf("library run: %v", err)
	}
	want, err := json.Marshal(buildReportDoc("c0001", "default", c.Name, res))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n') // the handler's json.Encoder framing

	// Service run over loopback HTTP.
	o, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(o))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID != "c0001" {
		t.Fatalf("submit: status %d id %q, want 201 c0001", resp.StatusCode, st.ID)
	}
	if err := o.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d body %s", resp.StatusCode, got.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("service report diverges from library run:\nservice %s\nlibrary %s",
			got.Bytes(), want)
	}
}

// TestServePatternCampaign covers the pattern-form path end to end:
// submitted over HTTP, a classic eop campaign settles and reports the
// same bytes as the library driver.
func TestServePatternCampaign(t *testing.T) {
	raw := []byte(`{
	  "name": "classic",
	  "resource": "xsede.comet", "cores": 16, "walltime_min": 60,
	  "pattern": {"type": "eop", "pipelines": 4, "stages": [
	    {"name": "misc.mkfile", "params": {"size_mb": 10}},
	    {"name": "misc.ccount", "params": {"size_mb": 10}}
	  ]}
	}`)
	c, err := campaign.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(buildReportDoc("c0001", "alice", "classic", res))
	want = append(want, '\n')

	o, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := o.Submit("alice", raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "classic" {
		t.Errorf("status name = %q, want the campaign's label", st.Name)
	}
	if err := o.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	doc, err := o.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(doc)
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("pattern report diverges:\nservice %s\nlibrary %s", got, want)
	}
}
