// Persistence: what decouples campaign lifetime from daemon lifetime.
// Each campaign owns one directory under <StateDir>/campaigns/<id>/:
//
//	campaign.json   the submitted description, verbatim
//	meta.json       id, tenant, name, lifecycle state, error
//	report.json     the ReportDoc, written when the campaign settles
//	trace.bin       ENTKPROF dump of the session trace at settlement
//	checkpoint.bin  ENTKCKPT resume state + trace, written at shutdown
//
// Every file is written to <name>.tmp beside it and renamed into place,
// so a reader — or a daemon restarted after a crash mid-write — finds
// the previous file or the whole new one, never a torn one; a leftover
// *.tmp is dead weight the next write of that name overwrites. Nothing
// is fsynced: that waits until the bytes written are O(campaign).
//
// A restarted daemon rebuilds its registry from these directories:
// terminal campaigns become queryable again (report and trace served
// from the files), checkpointed ones are re-admitted and resumed, and
// queued ones re-enter admission from scratch. A directory without a
// meta.json is a submission the crash caught before its first rename —
// its client never got an id — and is skipped.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"entk"
	"entk/internal/campaign"
	"entk/internal/profile"
)

type metaDoc struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
}

func (o *Orchestrator) campaignDir(id string) string {
	return filepath.Join(o.opts.StateDir, "campaigns", id)
}

// writeAtomic creates path by way of path.tmp and a rename. Writers of
// one campaign's files are serialised by its handle's lock, so the
// fixed temp name is never shared.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: err is the one to report
	}
	return err
}

func writeBytes(path string, b []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

func writeJSON(path string, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeBytes(path, append(b, '\n'))
}

// notePersist surfaces a persistence failure without changing the
// campaign's lifecycle state: it is logged once, here, and its text
// joins the error that Status and (where it can still be written)
// meta.json carry. The os errors name the file. h.mu is held.
func (h *handle) notePersist(err error) {
	if err == nil {
		return
	}
	log.Printf("serve: campaign %s: persistence: %v", h.id, err)
	if h.errText != "" {
		h.errText += "; "
	}
	h.errText += "persistence: " + err.Error()
}

// persistSubmission writes the spec and initial meta; a daemon killed
// before the campaign settles can then at least re-admit it.
func (o *Orchestrator) persistSubmission(h *handle) {
	if o.opts.StateDir == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	dir := o.campaignDir(h.id)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = writeBytes(filepath.Join(dir, "campaign.json"), h.raw)
	}
	if err == nil {
		err = o.persistMetaLocked(h)
	}
	h.notePersist(err)
}

func (o *Orchestrator) persistMetaLocked(h *handle) error {
	if o.opts.StateDir == "" {
		return nil
	}
	dir := o.campaignDir(h.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "meta.json"), metaDoc{
		ID: h.id, Tenant: h.tenant, Name: h.name, State: h.state, Error: h.errText,
	})
}

// persistTerminal writes report, trace, and meta for a settled
// campaign — meta last, so it can carry what went wrong with the other
// two, and so a meta.json saying "done" implies the report beside it.
// Runs inside the pool's simulation process, so the trace is
// snapshotted (other campaigns may still be recording on the session).
func (o *Orchestrator) persistTerminal(h *handle) {
	if o.opts.StateDir == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	dir := o.campaignDir(h.id)
	err := writeJSON(filepath.Join(dir, "report.json"),
		buildReportDoc(h.id, h.tenant, h.name, h.result))
	if err == nil && h.result != nil && h.result.Prof != nil {
		snap := h.result.Prof.Snapshot()
		err = writeAtomic(filepath.Join(dir, "trace.bin"), func(w io.Writer) error {
			_, err := snap.WriteTo(w)
			return err
		})
	}
	h.notePersist(err)
	h.notePersist(o.persistMetaLocked(h))
}

// persistCheckpointLocked writes the shutdown checkpoint: resume state
// plus a snapshot of the session trace so far. h.mu is held.
func (o *Orchestrator) persistCheckpointLocked(h *handle, cp *entk.CampaignCheckpoint) error {
	if o.opts.StateDir == "" {
		return fmt.Errorf("serve: no state directory to checkpoint into")
	}
	dir := o.campaignDir(h.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var prof *profile.Profiler
	if h.rs != nil {
		prof = h.rs.Session().Prof.Snapshot()
	}
	return writeAtomic(filepath.Join(dir, "checkpoint.bin"), func(w io.Writer) error {
		return entk.SaveCheckpoint(w, cp, prof)
	})
}

// loadReport reads a restored campaign's persisted report. h.mu is held.
func (o *Orchestrator) loadReport(h *handle) (*ReportDoc, error) {
	b, err := os.ReadFile(filepath.Join(o.campaignDir(h.id), "report.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: campaign %s report: %w", h.id, err)
	}
	doc := &ReportDoc{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("serve: campaign %s report: %w", h.id, err)
	}
	return doc, nil
}

// copyTrace streams a restored campaign's persisted trace.
func (o *Orchestrator) copyTrace(h *handle, w io.Writer) error {
	f, err := os.Open(filepath.Join(o.campaignDir(h.id), "trace.bin"))
	if err != nil {
		return fmt.Errorf("serve: campaign %s trace: %w", h.id, err)
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// restore rebuilds the registry from the state directory at startup.
func (o *Orchestrator) restore() error {
	if o.opts.StateDir == "" {
		return nil
	}
	root := filepath.Join(o.opts.StateDir, "campaigns")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := o.restoreOne(id); err != nil {
			return fmt.Errorf("serve: restoring campaign %s: %w", id, err)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n > o.seq {
			o.seq = n
		}
	}
	return nil
}

func (o *Orchestrator) restoreOne(id string) error {
	dir := o.campaignDir(id)
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("serve: skipping %s: no meta.json (submission interrupted before it was persisted)", dir)
		return nil
	}
	if err != nil {
		return err
	}
	var meta metaDoc
	if err := json.Unmarshal(b, &meta); err != nil {
		return err
	}
	h := &handle{id: id, tenant: meta.Tenant, name: meta.Name, done: make(chan struct{})}

	switch meta.State {
	case StateDone, StateFailed, StateAborted:
		// Terminal: queryable from the files, nothing to run.
		h.state = meta.State
		h.errText = meta.Error
		h.fromDisk = true
		close(h.done)
	case StateCheckpointed:
		if err := o.loadSpec(h, dir); err != nil {
			return err
		}
		cf, err := os.Open(filepath.Join(dir, "checkpoint.bin"))
		if err != nil {
			return err
		}
		cp, err := entk.LoadCheckpoint(cf, nil)
		cf.Close()
		if err != nil {
			return err
		}
		h.resume = cp
		h.state = StateQueued
	default: // queued, or running after a hard crash: re-admit fresh
		if err := o.loadSpec(h, dir); err != nil {
			return err
		}
		h.state = StateQueued
	}

	o.mu.Lock()
	o.campaigns[id] = h
	o.order = append(o.order, id)
	o.mu.Unlock()
	if h.state == StateQueued {
		o.enqueue(h)
	}
	return nil
}

func (o *Orchestrator) loadSpec(h *handle, dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return err
	}
	c, err := campaign.Parse(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	h.raw = raw
	h.spec = c
	if h.name == "" {
		h.name = c.Name
	}
	return nil
}
