package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"entk"
	"entk/internal/campaign"
	"entk/internal/profile"
	"entk/internal/vclock"
)

// liveCampaign is deliberately large (18k tasks), so the polls after
// TestLiveEndpoints releases its clock usually land mid-run too.
const liveCampaign = `{
  "name": "live-probe",
  "resource": "xsede.comet", "cores": 64, "walltime_min": 6000,
  "pipelines": [{"name": "live", "stages": [
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 12}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 11}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 10}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 9}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 8}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 7}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 6}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 5}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 4}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 3}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 2}}}]},
    {"tasks": [{"count": 1500, "kernel": {"name": "misc.sleep", "params": {"seconds": 1}}}]}
  ]}]
}`

// TestLiveEndpoints exercises the mid-run observability surface over
// real HTTP: while a campaign executes, /report answers 202 with the
// live status, POST /checkpoint streams a loadable ENTKCKPT document,
// and /trace streams a parseable ENTKPROF snapshot of the live session.
// None of them block on the running campaign.
func TestLiveEndpoints(t *testing.T) {
	o, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(o))
	defer ts.Close()
	client := ts.Client()

	// Hold the campaign's pool clock: with one more registration counted
	// runnable it cannot advance, so the campaign is mid-run, whatever
	// the machine's speed, until the mid-run /report has been answered.
	spec, err := campaign.Parse(strings.NewReader(liveCampaign))
	if err != nil {
		t.Fatal(err)
	}
	held := o.poolFor(spec).v
	held.Attach()

	resp, err := client.Post(ts.URL+"/v1/campaigns", "application/json",
		bytes.NewReader([]byte(liveCampaign)))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// /report mid-run: the endpoint must answer 202 with the live status
	// rather than blocking until completion.
	resp, err = client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("mid-run report: status %d, want 202", resp.StatusCode)
	}
	var live Status
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatalf("mid-run report body: %v", err)
	}
	resp.Body.Close()
	if live.ID != st.ID || (live.State != StateQueued && live.State != StateRunning) {
		t.Errorf("mid-run report status = %+v, want queued/running %s", live, st.ID)
	}
	held.Detach() // release the clock: the campaign runs on

	// POST /checkpoint: 409 until the campaign holds live simulation
	// state, then an ENTKCKPT stream that LoadCheckpoint accepts. The
	// endpoint also works on a settled campaign (the tracker keeps its
	// final barrier state), so polling past the 409s always converges.
	var ckpt []byte
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err = client.Post(ts.URL+"/v1/campaigns/"+st.ID+"/checkpoint", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ckpt = body.Bytes()
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("checkpoint: status %d body %s", resp.StatusCode, body.Bytes())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if ckpt == nil {
		t.Fatal("checkpoint endpoint never answered 200")
	}
	cp, err := entk.LoadCheckpoint(bytes.NewReader(ckpt), nil)
	if err != nil {
		t.Fatalf("checkpoint stream does not load: %v", err)
	}
	if cp.Pipeline("live") == nil {
		t.Error("checkpoint lost the campaign's pipeline")
	}

	// /trace: a live snapshot in ENTKPROF format, parseable by an empty
	// profiler. Poll past the pre-launch 409 window.
	var trace []byte
	for time.Now().Before(deadline) {
		resp, err = client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			trace = body.Bytes()
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("trace: status %d body %s", resp.StatusCode, body.Bytes())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if trace == nil {
		t.Fatal("trace endpoint never answered 200")
	}
	into := profile.New(vclock.NewVirtual())
	if _, err := into.ReadFrom(bytes.NewReader(trace)); err != nil {
		t.Fatalf("trace stream does not parse: %v", err)
	}
	if into.EventCount() == 0 {
		t.Error("trace snapshot is empty")
	}

	// Let the campaign settle; the same endpoints now serve the final
	// report and the full trace.
	if err := o.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(ts.URL + "/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settled report: status %d", resp.StatusCode)
	}
	var doc ReportDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Campaign == nil || doc.Campaign.Campaign.Tasks == 0 {
		t.Errorf("settled report looks empty: %+v", doc)
	}

	// Unknown ids are 404 everywhere.
	resp, err = client.Get(ts.URL + "/v1/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestCheckpointBeforePipelinesRegistered pins the window launch leaves
// between publishing a campaign's AppManager and that manager's Run
// registering the pipelines: a checkpoint taken there would be empty,
// so the endpoint must answer "not running" (409), never a document.
func TestCheckpointBeforePipelinesRegistered(t *testing.T) {
	o, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := campaign.Parse(strings.NewReader(liveCampaign))
	if err != nil {
		t.Fatal(err)
	}
	var opts campaign.Options
	v := opts.NewClock()
	rs, err := c.Bind(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		err = rs.Allocate()
		v.Attach() // a phantom process: the clock holds here after Run returns
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &handle{id: "c0001", spec: c, state: StateRunning,
		rs: rs, am: entk.NewAppManager(rs), done: make(chan struct{})}
	o.campaigns[h.id] = h

	var buf bytes.Buffer
	if err := o.CheckpointTo(h.id, &buf); !errors.Is(err, ErrNotRunning) {
		t.Errorf("CheckpointTo before registration: err = %v, want ErrNotRunning", err)
	}
	if buf.Len() != 0 {
		t.Errorf("CheckpointTo before registration wrote %d bytes", buf.Len())
	}
}
