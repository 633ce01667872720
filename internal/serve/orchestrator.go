// The orchestrator: tenant sessions → running campaigns → shared
// pools. It owns the campaign registry (ids, lifecycle states, results),
// the pool table (shared ResourceSets keyed by resource signature), the
// admission queue, and — through state.go — the persistence that
// decouples campaign lifetime from daemon lifetime.

package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"entk"
	"entk/internal/campaign"
	"entk/internal/realtime"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound: no campaign with that id.
	ErrNotFound = fmt.Errorf("serve: no such campaign")
	// ErrNotSettled: the campaign has not reached a terminal state yet
	// (report requested mid-run).
	ErrNotSettled = fmt.Errorf("serve: campaign not settled yet")
	// ErrNotRunning: the campaign holds no live simulation state
	// (trace or checkpoint requested before launch or after restart).
	ErrNotRunning = fmt.Errorf("serve: campaign not running")
	// ErrNotCheckpointable: pattern-form campaigns have no stage
	// barriers to checkpoint.
	ErrNotCheckpointable = fmt.Errorf("serve: campaign is not checkpointable")
	// ErrClosed: the daemon is shutting down.
	ErrClosed = fmt.Errorf("serve: daemon shutting down")
)

// handle is the orchestrator's view of one campaign: submission data,
// lifecycle state, and (once launched) the live simulation handles the
// trace/checkpoint endpoints read through.
type handle struct {
	id     string
	tenant string
	name   string
	raw    []byte // the submitted JSON, persisted verbatim
	spec   *campaign.Campaign
	resume *entk.CampaignCheckpoint // non-nil for restored campaigns

	mu       sync.Mutex
	state    string
	errText  string
	pool     *pool
	rs       *entk.ResourceSet
	am       *entk.AppManager // graph campaigns only, set before Run
	result   *campaign.Result
	fromDisk bool // terminal state restored from the state dir
	done     chan struct{}
}

func (h *handle) snapshotStatus() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Status{ID: h.id, Tenant: h.tenant, Name: h.name, State: h.state, Error: h.errText}
	if h.pool != nil {
		st.Pool = h.pool.name
	}
	if h.am != nil {
		// The always-on campaign tracker: live (and final) per-pipeline
		// progress at the last settled stage barriers.
		for _, pc := range h.am.Checkpoint().Pipelines {
			prog := PipelineProgress{Name: pc.Name, SettledStages: pc.SettledStages,
				Tasks: pc.Tasks, Retries: pc.Retries}
			for _, ph := range pc.Phases {
				prog.Busy += ph.Busy
			}
			st.Pipelines = append(st.Pipelines, prog)
		}
	}
	return st
}

// Orchestrator is the daemon's core: it accepts campaigns, admits them
// fairly, runs them on shared pools, and persists their lifecycle.
type Orchestrator struct {
	opts Options
	adm  *admission
	// runner is the daemon-wide local process executor in real mode
	// (nil in sim mode): one executor shared by every pool, so teardown
	// reaping is a single Close at shutdown.
	runner *realtime.Executor

	mu          sync.Mutex
	pools       map[string]*pool
	campaigns   map[string]*handle
	order       []string // ids in submission order
	completions []string // ids in completion order (fairness evidence)
	seq         int
	closed      bool
}

// New builds an orchestrator. With a state directory configured it
// restores persisted campaigns first: terminal ones become queryable
// again, checkpointed ones are re-admitted and resumed, queued ones
// are re-admitted from scratch.
func New(opts Options) (*Orchestrator, error) {
	o := &Orchestrator{
		opts:      opts,
		adm:       newAdmission(opts.Weights, opts.TenantCap, opts.MaxInFlight),
		pools:     make(map[string]*pool),
		campaigns: make(map[string]*handle),
	}
	if opts.Mode == campaign.ModeReal {
		ex, err := realtime.New(realtime.Config{Dir: opts.RealDir})
		if err != nil {
			return nil, err
		}
		o.runner = ex
	}
	if err := o.restore(); err != nil {
		if o.runner != nil {
			o.runner.Close()
		}
		return nil, err
	}
	return o, nil
}

// RunnerDir returns the real-mode capture directory ("" in sim mode).
func (o *Orchestrator) RunnerDir() string {
	if o.runner == nil {
		return ""
	}
	return o.runner.Dir()
}

// Submit parses, validates, registers, and enqueues one campaign,
// returning its initial status. The campaign runs on after Submit
// returns; poll Status (or Wait) for progress.
func (o *Orchestrator) Submit(tenant string, raw []byte) (Status, error) {
	c, err := campaign.Parse(bytes.NewReader(raw))
	if err != nil {
		return Status{}, err
	}
	if tenant == "" {
		tenant = "default"
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return Status{}, ErrClosed
	}
	o.seq++
	h := &handle{
		id:     fmt.Sprintf("c%04d", o.seq),
		tenant: tenant,
		name:   c.Name,
		raw:    append([]byte(nil), raw...),
		spec:   c,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	o.campaigns[h.id] = h
	o.order = append(o.order, h.id)
	o.mu.Unlock()

	o.persistSubmission(h)
	o.enqueue(h)
	return h.snapshotStatus(), nil
}

// enqueue hands the handle to admission; shared by Submit and restore.
func (o *Orchestrator) enqueue(h *handle) {
	o.adm.Submit(h.tenant, func(release func()) { o.launch(h, release) })
}

// poolFor returns (building if needed) the shared pool matching the
// campaign's resource signature.
func (o *Orchestrator) poolFor(c *campaign.Campaign) *pool {
	opts := campaign.Options{Engine: o.opts.Engine, Layout: o.opts.Layout,
		Mode: o.opts.Mode, Runner: o.runner}
	key := poolKey(c, opts)
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.pools[key]
	if !ok {
		p = newPool(fmt.Sprintf("pool%d", len(o.pools)+1), key, opts)
		o.pools[key] = p
	}
	return p
}

// launch runs the campaign on its pool. Called by admission on a
// wall-clock goroutine once a fair-share slot frees up.
func (o *Orchestrator) launch(h *handle, release func()) {
	p := o.poolFor(h.spec)
	h.mu.Lock()
	if h.state == StateQueued {
		h.state = StateRunning
	}
	h.pool = p
	h.mu.Unlock()

	p.launch(h.spec, func(rs *entk.ResourceSet, err error) {
		if err != nil {
			o.settle(h, nil, err, release)
			return
		}
		h.mu.Lock()
		h.rs = rs
		var am *entk.AppManager
		if h.spec.Pattern == nil {
			am = entk.NewAppManager(rs)
			h.am = am
		}
		h.mu.Unlock()

		res := &campaign.Result{Prof: rs.Session().Prof}
		var runErr error
		switch {
		case h.resume != nil:
			res.Campaign, runErr = am.Resume(h.resume, h.spec.GraphPipelines()...)
		case h.spec.Pattern != nil:
			res.Report, runErr = rs.Run(h.spec.LegacyPattern())
		default:
			res.Campaign, runErr = am.Run(h.spec.GraphPipelines()...)
		}
		o.settle(h, res, runErr, release)
	})
}

// settle records a campaign's terminal state. It runs inside the
// pool's simulation process (its last act before the pool idles), so
// everything here must stay wall-clock-light and must not block on
// vclock primitives of other pools.
func (o *Orchestrator) settle(h *handle, res *campaign.Result, err error, release func()) {
	h.mu.Lock()
	h.result = res
	interrupted := h.state == StateCheckpointed || h.state == StateAborted
	if !interrupted {
		if err != nil {
			h.state = StateFailed
			h.errText = err.Error()
		} else {
			h.state = StateDone
		}
	}
	h.mu.Unlock()

	o.mu.Lock()
	closed := o.closed
	if !closed && !interrupted {
		o.completions = append(o.completions, h.id)
	}
	o.mu.Unlock()
	if !closed && !interrupted {
		o.persistTerminal(h)
	}
	close(h.done)
	release()
}

// Status returns one campaign's current status.
func (o *Orchestrator) Status(id string) (Status, error) {
	h, err := o.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return h.snapshotStatus(), nil
}

// List returns every campaign's status in submission order.
func (o *Orchestrator) List() []Status {
	o.mu.Lock()
	ids := append([]string(nil), o.order...)
	o.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, err := o.Status(id); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// CompletionOrder returns the ids of settled campaigns in the order
// they completed — the fairness tests' interleaving evidence.
func (o *Orchestrator) CompletionOrder() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.completions...)
}

// Wait blocks until the campaign reaches a terminal state.
func (o *Orchestrator) Wait(id string) error {
	h, err := o.lookup(id)
	if err != nil {
		return err
	}
	<-h.done
	return nil
}

// Report returns the settled campaign's report document. ErrNotSettled
// while the campaign is still queued or running.
func (o *Orchestrator) Report(id string) (*ReportDoc, error) {
	h, err := o.lookup(id)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case StateDone, StateFailed:
	default:
		return nil, ErrNotSettled
	}
	if h.fromDisk {
		return o.loadReport(h)
	}
	return buildReportDoc(h.id, h.tenant, h.name, h.result), nil
}

// Trace streams the campaign's trace as an ENTKPROF dump: the live
// session trace of the pool the campaign runs on (a consistent
// point-in-time snapshot — Record keeps running), or the persisted
// trace for campaigns restored from the state directory. The trace is
// per pool session: campaigns sharing a pool share a timeline.
func (o *Orchestrator) Trace(id string, w io.Writer) error {
	h, err := o.lookup(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	rs, fromDisk := h.rs, h.fromDisk
	h.mu.Unlock()
	if fromDisk {
		return o.copyTrace(h, w)
	}
	if rs == nil {
		return ErrNotRunning
	}
	_, err = rs.Session().Prof.Snapshot().WriteTo(w)
	return err
}

// CheckpointTo takes an on-demand checkpoint of a running (or settled)
// graph campaign and streams it — resume state plus a snapshot of the
// session trace — in SaveCheckpoint's ENTKCKPT format.
func (o *Orchestrator) CheckpointTo(id string, w io.Writer) error {
	h, err := o.lookup(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	am, rs := h.am, h.rs
	h.mu.Unlock()
	if h.spec != nil && h.spec.Pattern != nil {
		return ErrNotCheckpointable
	}
	if am == nil || rs == nil {
		return ErrNotRunning
	}
	cp := am.Checkpoint()
	if len(cp.Pipelines) == 0 {
		// launch publishes the manager before its Run registers the
		// campaign's pipelines; a graph campaign always has at least one.
		return ErrNotRunning
	}
	return entk.SaveCheckpoint(w, cp, rs.Session().Prof.Snapshot())
}

// PeakInFlight exposes the admission queue's observed peaks (tests).
func (o *Orchestrator) PeakInFlight() (total int, perTenant map[string]int) {
	return o.adm.Peak()
}

func (o *Orchestrator) lookup(id string) (*handle, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	return h, nil
}

// Shutdown closes the daemon gracefully: no new submissions are
// accepted, every in-flight graph campaign is checkpointed (state plus
// trace snapshot) into the state directory for a restarted daemon to
// resume, queued campaigns are persisted for fresh re-admission, and
// non-resumable in-flight work is marked aborted. The pools' simulations
// are left to wind down on their own — the checkpoint is barrier-
// granular, so whatever settles after it is simply re-done on resume.
func (o *Orchestrator) Shutdown() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	ids := append([]string(nil), o.order...)
	o.mu.Unlock()

	sort.Strings(ids)
	var firstErr error
	for _, id := range ids {
		h, err := o.lookup(id)
		if err != nil {
			continue
		}
		if err := o.interrupt(h); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.runner != nil {
		// Reap every live process group: no orphans survive the daemon.
		o.runner.Close()
	}
	return firstErr
}

// interrupt checkpoints or parks one campaign at shutdown.
func (o *Orchestrator) interrupt(h *handle) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case StateQueued:
		// Never launched: persist for fresh re-admission.
		return o.persistMetaLocked(h)
	case StateRunning:
		switch {
		case h.am != nil:
			if err := o.persistCheckpointLocked(h, h.am.Checkpoint()); err != nil {
				return err
			}
			h.state = StateCheckpointed
		case h.spec != nil && h.spec.Pattern == nil:
			// A graph campaign caught before its AppManager existed
			// (still allocating): nothing ran, re-admit from scratch.
			h.state = StateQueued
		default:
			// Pattern campaigns have no stage barriers to checkpoint.
			h.state = StateAborted
			h.errText = "interrupted by daemon shutdown"
		}
		return o.persistMetaLocked(h)
	}
	return nil
}
