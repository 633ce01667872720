package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"entk/internal/campaign"
	"entk/internal/serve"
	"entk/internal/stats"
)

// serveClosed is an in-process entk-serve under closed-loop tenants.
// Closed loop, because a tenant waits for its report before it submits
// again; one tenant, one keep-alive connection and one OS thread's
// worth of load per CPU, so the generator cannot outrun the daemon.
//
// A repetition is a fixed wall interval against a fresh daemon and a
// fresh state directory: with -state the daemon rewrites its pool's
// whole cumulative trace at every settle, so latency climbs with the
// campaign index and a daemon's age is part of the workload.
type serveClosed struct {
	clients int
	region  time.Duration
	docs    [][][]byte // campaign documents per tenant, drawn from the seed
	next    *daemon    // built by set-up for the first repetition
	dirSeq  int
	scratch string
}

// serveSignature is tenant c's resource request. Every tenant has its
// own signature and therefore its own pool. The issue asked for two
// signatures shared by all tenants; shared pools trip a race in
// serve/pool.go (a launch that has counted itself active but not yet
// registered its process, beside a finish that therefore attaches no
// idle phantom: the pool's clock runs free to the walltime timer and
// the pilot dies) about once per 20,000 campaigns, after which every
// campaign on that pool fails. A workload must not fail, and the
// benchmark may not edit serve; README.md records the finding.
func serveSignature(c int) (resource string, cores int) {
	if c%2 == 0 {
		return "xsede.comet", 48 + 4*(c/2)
	}
	return "xsede.stampede", 64 + 4*(c/2)
}

const (
	serveUnits      = 36 // 32 simulations + 4 analyses
	serveTraceEvery = 8
	// serveWalltimeMin keeps pool pilots alive: a pool's virtual clock
	// accumulates every campaign it ever ran, and an expired pilot
	// settles campaigns short of their plan.
	serveWalltimeMin = 5_000_000
)

// serveDoc renders one 36-unit two-stage campaign: 32 individually
// described simulations with seeded durations, then 4 analyses.
func serveDoc(rng *rand.Rand, tenant int) []byte {
	resource, cores := serveSignature(tenant)
	c := campaign.Campaign{
		Name:      "bench",
		Resources: []campaign.Pilot{{Resource: resource, Cores: cores, WalltimeMin: serveWalltimeMin}},
	}
	sims := make([]campaign.Task, 32)
	for i := range sims {
		sims[i] = campaign.Task{
			Name: fmt.Sprintf("sim.%02d", i),
			Kernel: campaign.Kernel{Name: "misc.sleep",
				Params: map[string]float64{"seconds": float64(20000+rng.Intn(20001)) / 1000}},
		}
	}
	ana := campaign.Task{Name: "ana", Count: 4, Kernel: campaign.Kernel{Name: "misc.sleep",
		Params: map[string]float64{"seconds": float64(5000+rng.Intn(5001)) / 1000}}}
	c.Pipelines = []campaign.Pipeline{{Name: "p", Stages: []campaign.Stage{
		{Name: "sim", Tasks: sims}, {Name: "ana", Tasks: []campaign.Task{ana}},
	}}}
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: campaign document: %v", err)) // plain data cannot fail to marshal
	}
	return b
}

func setupServeClosed(e *env) (instance, error) {
	if _, err := preflight(); err != nil {
		return nil, err
	}
	s := &serveClosed{clients: runtime.NumCPU(), region: 5 * time.Second, scratch: e.scratch}
	if e.quick {
		s.region = 300 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(e.seed))
	s.docs = make([][][]byte, s.clients)
	for c := range s.docs {
		s.docs[c] = make([][]byte, 32)
		for i := range s.docs[c] {
			s.docs[c][i] = serveDoc(rng, c)
		}
	}
	d, err := s.newDaemon()
	if err != nil {
		return nil, err
	}
	s.next = d
	return s, nil
}

func (s *serveClosed) close() {
	if s.next != nil {
		s.next.stop()
		s.next = nil
	}
}

// daemon is one orchestrator with its state directory and HTTP front.
type daemon struct {
	orch  *serve.Orchestrator
	srv   *httptest.Server
	state string
}

// newDaemon starts a daemon on a fresh state directory and creates every
// tenant's pool by running one of its campaigns to completion.
func (s *serveClosed) newDaemon() (*daemon, error) {
	s.dirSeq++
	state := filepath.Join(s.scratch, fmt.Sprintf("serve-state-%d", s.dirSeq))
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, fmt.Errorf("serve-closed: %w", err)
	}
	orch, err := serve.New(serve.Options{StateDir: state})
	if err != nil {
		os.RemoveAll(state)
		return nil, fmt.Errorf("serve-closed: %w", err)
	}
	d := &daemon{orch: orch, srv: httptest.NewServer(serve.NewHandler(orch)), state: state}
	for c := range s.docs {
		st, err := orch.Submit("warmup", s.docs[c][0])
		if err == nil {
			err = orch.Wait(st.ID)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("serve-closed: pool creation: %w", err)
		}
	}
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Close()
	_ = d.orch.Shutdown() // nothing is in flight; the error would be a checkpoint of nothing
	os.RemoveAll(d.state)
}

// dirKB is the size of everything under dir.
func dirKB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}

// iteration is one tenant round trip, as the client saw it.
type iteration struct {
	at                         time.Duration // when it finished, since the region began
	latMS                      float64       // POST sent -> report body read
	submitMS, waitMS, reportMS float64
	traceMS, traceKB           float64 // 0 on iterations that fetch no trace
	problem                    string
	requests, failedRequests   int
}

func (s *serveClosed) rep(e *env) (*repResult, error) {
	d := s.next
	s.next = nil
	if d == nil {
		var err error
		if d, err = s.newDaemon(); err != nil {
			return nil, err
		}
	}
	defer d.stop()

	r := &repResult{}
	stateKB0, rss0 := dirKB(d.state), rssKB()
	perClient := make([][]iteration, s.clients)
	root := e.tr.start("rep", 0)
	var start time.Time
	r.wallS, r.cpuS = measure(func() {
		start = time.Now()
		deadline := start.Add(s.region)
		var wg sync.WaitGroup
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				perClient[c] = s.client(e, d, c, root, start, deadline)
			}()
		}
		wg.Wait()
	})
	e.tr.end(root)

	// Merge the tenants' iterations in completion order: that is the
	// campaign index the latency slope is taken against.
	var its []iteration
	for _, ci := range perClient {
		its = append(its, ci...)
	}
	sort.Slice(its, func(i, j int) bool { return its[i].at < its[j].at })
	var submit, wait, report, trace, traceKB []float64
	for _, it := range its {
		r.attempted += it.requests
		r.failed += it.failedRequests
		if it.problem != "" {
			r.problems = append(r.problems, it.problem)
			continue
		}
		r.campaigns++
		r.units += serveUnits
		r.latMS = append(r.latMS, it.latMS)
		submit, wait, report = append(submit, it.submitMS), append(wait, it.waitMS), append(report, it.reportMS)
		if it.traceKB > 0 {
			trace, traceKB = append(trace, it.traceMS), append(traceKB, it.traceKB)
		}
	}
	if r.campaigns == 0 {
		return nil, fmt.Errorf("serve-closed: no campaign completed in %v: %v", s.region, r.problems)
	}
	if e.tr != nil {
		n := float64(r.campaigns)
		peak, _ := d.orch.PeakInFlight()
		r.layer = map[string]float64{
			"serve.submit_ms_p50":                 percentile(submit, 50),
			"serve.submit_ms_p95":                 percentile(submit, 95),
			"serve.wait_ms_p50":                   percentile(wait, 50),
			"serve.wait_ms_p95":                   percentile(wait, 95),
			"serve.report_ms_p50":                 percentile(report, 50),
			"serve.trace_ms_p50":                  percentile(trace, 50),
			"serve.trace_kb_mean":                 stats.Mean(traceKB),
			"serve.state_kb_per_campaign":         (dirKB(d.state) - stateKB0) / n,
			"serve.rss_kb_per_campaign":           (rssKB() - rss0) / n,
			"serve.latency_slope_us_per_campaign": 1000 * indexSlope(r.latMS),
			"serve.peak_inflight":                 float64(peak),
		}
		if err := s.isolatedCampaignLayer(e, r.layer); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// client is one tenant: submit, wait, fetch the report, every eighth
// time fetch the trace, and start over until the deadline.
func (s *serveClosed) client(e *env, d *daemon, c, root int, start, deadline time.Time) []iteration {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	tenant := fmt.Sprintf("tenant%d", c)
	var out []iteration
	for k := 0; time.Now().Before(deadline); k++ {
		doc := s.docs[c][k%len(s.docs[c])]
		it := iteration{}
		sp := e.tr.start("iteration", root)
		ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

		t0 := time.Now()
		child := e.tr.start("serve.submit", sp)
		var st serve.Status
		err := call(hc, &it, http.MethodPost, d.srv.URL+"/v1/campaigns", tenant, doc, http.StatusCreated, &st)
		e.tr.end(child)
		it.submitMS = ms(t0)

		if err == nil {
			t1 := time.Now()
			child = e.tr.start("serve.wait", sp)
			err = d.orch.Wait(st.ID)
			e.tr.end(child)
			it.waitMS = ms(t1)
		}
		var doc2 serve.ReportDoc
		if err == nil {
			t2 := time.Now()
			child = e.tr.start("serve.report", sp)
			err = call(hc, &it, http.MethodGet, d.srv.URL+"/v1/campaigns/"+st.ID+"/report", tenant, nil, http.StatusOK, &doc2)
			e.tr.end(child)
			it.reportMS = ms(t2)
			it.latMS = ms(t0)
		}
		if err == nil {
			if err = checkServeReport(&doc2); err != nil {
				// Say what the daemon thinks happened to it.
				if st, serr := d.orch.Status(st.ID); serr == nil {
					err = fmt.Errorf("%w (state %s: %s)", err, st.State, st.Error)
				}
			}
		}
		if err == nil && k%serveTraceEvery == serveTraceEvery-1 {
			t3 := time.Now()
			child = e.tr.start("serve.trace", sp)
			var n int64
			n, err = fetch(hc, &it, d.srv.URL+"/v1/campaigns/"+st.ID+"/trace", tenant)
			e.tr.end(child)
			it.traceMS, it.traceKB = ms(t3), float64(n)/1024
		}
		e.tr.end(sp)
		if err != nil {
			it.problem = fmt.Sprintf("serve-closed: %s iteration %d: %v", tenant, k, err)
			it.failedRequests = max(it.failedRequests, 1)
		}
		it.at = time.Since(start)
		out = append(out, it)
	}
	return out
}

// checkServeReport compares a report to the submitted document: done,
// every planned task settled, stage by stage.
func checkServeReport(doc *serve.ReportDoc) error {
	if doc.Campaign == nil || doc.Campaign.Campaign == nil {
		return fmt.Errorf("report of %s carries no campaign", doc.ID)
	}
	rep := doc.Campaign.Campaign
	if rep.Tasks != serveUnits || rep.PlannedTasks != serveUnits || rep.Retries != 0 {
		return fmt.Errorf("campaign %s settled %d of %d planned tasks (%d retries), submitted %d",
			doc.ID, rep.Tasks, rep.PlannedTasks, rep.Retries, serveUnits)
	}
	if got := rep.Phase("p.sim").Tasks; got != 32 {
		return fmt.Errorf("campaign %s stage sim ran %d tasks, submitted 32", doc.ID, got)
	}
	if got := rep.Phase("p.ana").Tasks; got != 4 {
		return fmt.Errorf("campaign %s stage ana ran %d tasks, submitted 4", doc.ID, got)
	}
	return nil
}

// send issues one request as tenant and counts it; whoever reads the
// answer counts a failure there through failed.
func send(hc *http.Client, it *iteration, method, url, tenant string, body []byte) (*http.Response, error) {
	it.requests++
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, failed(it, err)
	}
	req.Header.Set("X-Entk-Tenant", tenant)
	resp, err := hc.Do(req)
	return resp, failed(it, err)
}

// failed counts err, if any, against the iteration and passes it on.
func failed(it *iteration, err error) error {
	if err != nil {
		it.failedRequests++
	}
	return err
}

// call makes one JSON request and decodes the answer into out.
func call(hc *http.Client, it *iteration, method, url, tenant string, body []byte, want int, out any) error {
	resp, err := send(hc, it, method, url, tenant, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, out)
	}
	return failed(it, err)
}

// fetch reads a binary endpoint to the end, without keeping it (a trace
// is over a megabyte, and the generator's garbage would be the daemon's
// to collect), and returns its size.
func fetch(hc *http.Client, it *iteration, url, tenant string) (int64, error) {
	resp, err := send(hc, it, http.MethodGet, url, tenant, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return n, failed(it, err)
}

// isolatedCampaignLayer times the campaign package alone on the
// submitted documents — parse (decode + validate), validate, compile —
// and runs one document through campaign.Run, the library floor the
// daemon's wait time is compared to.
func (s *serveClosed) isolatedCampaignLayer(e *env, layer map[string]float64) error {
	const samples = 32
	var parseUS, validateUS, compileUS, runMS, kb []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	root := e.tr.start("campaign.isolated", 0)
	defer e.tr.end(root)
	for i := 0; i < samples; i++ {
		doc := s.docs[i%len(s.docs)][i%len(s.docs[0])]
		kb = append(kb, float64(len(doc))/1024)

		sp := e.tr.start("campaign.parse", root)
		t0 := time.Now()
		c, err := campaign.Parse(bytes.NewReader(doc))
		parseUS = append(parseUS, us(t0))
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("serve-closed: %w", err)
		}

		sp = e.tr.start("campaign.validate", root)
		t0 = time.Now()
		err = c.Validate()
		validateUS = append(validateUS, us(t0))
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("serve-closed: %w", err)
		}

		sp = e.tr.start("campaign.compile", root)
		t0 = time.Now()
		specs, pls := c.Specs(), c.GraphPipelines()
		compileUS = append(compileUS, us(t0))
		e.tr.end(sp)
		if len(specs) != 1 || len(pls) != 1 {
			return fmt.Errorf("serve-closed: compiled %d specs and %d pipelines, want 1 and 1", len(specs), len(pls))
		}

		sp = e.tr.start("campaign.run", root)
		t0 = time.Now()
		res, err := campaign.Run(c, campaign.Options{})
		runMS = append(runMS, us(t0)/1000)
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("serve-closed: library run: %w", err)
		}
		if res.Campaign.Campaign.Tasks != serveUnits {
			return fmt.Errorf("serve-closed: library run settled %d tasks, want %d", res.Campaign.Campaign.Tasks, serveUnits)
		}
	}
	layer["campaign.parse_us"] = median(parseUS)
	layer["campaign.validate_us"] = median(validateUS)
	layer["campaign.compile_us"] = median(compileUS)
	layer["campaign.doc_kb"] = stats.Mean(kb)
	layer["serve.lib_run_ms"] = median(runMS)
	return nil
}
