package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPersistenceFailureSurfaces takes the state directory away from a
// queued campaign before it runs: the campaign must still settle done —
// persistence is not part of its lifecycle — with the failure readable
// in its status, and its report still served from memory.
func TestPersistenceFailureSurfaces(t *testing.T) {
	o, err := New(Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	open := holdAdmission(o.adm)
	st, err := o.Submit("ops", smallCampaign("ops", 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Error != "" {
		t.Fatalf("submission persisted with error %q", st.Error)
	}
	// A plain file where the campaign's directory was: every write under
	// it fails for any user (a read-only directory would not stop root).
	dir := o.campaignDir(st.ID)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o444); err != nil {
		t.Fatal(err)
	}
	open()
	if err := o.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = o.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("state %s, want done: a persistence failure must not change the lifecycle", st.State)
	}
	if !strings.Contains(st.Error, "persistence: ") || !strings.Contains(st.Error, st.ID) {
		t.Errorf("status error %q does not carry the persistence failure and its path", st.Error)
	}
	if doc, err := o.Report(st.ID); err != nil || doc.Campaign == nil {
		t.Errorf("report of the unpersisted campaign: %v, %v", doc, err)
	}
}

// TestRestartIgnoresTempFiles restarts a daemon over a state directory
// carrying what a crash mid-write leaves behind: stray *.tmp files
// beside a settled campaign's files, and the directory of a submission
// that never got as far as its first rename.
func TestRestartIgnoresTempFiles(t *testing.T) {
	opts := Options{StateDir: t.TempDir()}
	o1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := o1.Submit("ops", smallCampaign("ops", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := o1.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	doc, err := o1.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(doc)
	if err := o1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	dir := o1.campaignDir(st.ID)
	for _, name := range []string{"campaign.json", "meta.json", "report.json", "trace.bin"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("settled campaign: %v", err)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("clean run left temp files behind: %v", tmps)
	}

	torn := o1.campaignDir("c0002")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(dir, "meta.json.tmp"), filepath.Join(dir, "report.json.tmp"),
		filepath.Join(torn, "campaign.json.tmp"),
	} {
		if err := os.WriteFile(path, []byte(`{"state": "runn`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	o2, err := New(opts)
	if err != nil {
		t.Fatalf("restart over leftover temp files: %v", err)
	}
	if list := o2.List(); len(list) != 1 || list[0].ID != st.ID || list[0].State != StateDone {
		t.Errorf("restored registry %+v, want only %s done", list, st.ID)
	}
	doc, err = o2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(doc); string(got) != string(want) {
		t.Errorf("restored report differs:\n got %s\nwant %s", got, want)
	}
	// The torn directory's id is not handed out again.
	st3, err := o2.Submit("ops", smallCampaign("ops", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != "c0003" {
		t.Errorf("next id %s, want c0003", st3.ID)
	}
	if err := o2.Wait(st3.ID); err != nil {
		t.Fatal(err)
	}
}
