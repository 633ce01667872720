package serve

import (
	"strings"
	"testing"

	"entk"
	"entk/internal/campaign"
)

// TestSettleShortCountFails plants reports whose executed task count
// differs from the plan on a run that returned no error: the campaign
// must settle failed with both counts in its error, for graph and
// pattern reports alike, while a report that ran its whole plan settles
// done.
func TestSettleShortCountFails(t *testing.T) {
	o, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		res     *campaign.Result
		state   string
		errText []string
	}{
		{"graph-short", &campaign.Result{Campaign: &entk.CampaignReport{
			Campaign: &entk.Report{Tasks: 35, PlannedTasks: 36}}},
			StateFailed, []string{"35 tasks", "36 planned"}},
		{"pattern-short", &campaign.Result{Report: &entk.Report{Tasks: 7, PlannedTasks: 8}},
			StateFailed, []string{"7 tasks", "8 planned"}},
		{"graph-whole", &campaign.Result{Campaign: &entk.CampaignReport{
			Campaign: &entk.Report{Tasks: 36, PlannedTasks: 36}}},
			StateDone, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &handle{id: tc.name, state: StateRunning, done: make(chan struct{})}
			o.settle(h, tc.res, nil, func() {})
			st := h.snapshotStatus()
			if st.State != tc.state {
				t.Errorf("state %s, want %s", st.State, tc.state)
			}
			for _, want := range tc.errText {
				if !strings.Contains(st.Error, want) {
					t.Errorf("error %q does not name %q", st.Error, want)
				}
			}
			if tc.errText == nil && st.Error != "" {
				t.Errorf("error %q on a whole run", st.Error)
			}
		})
	}
}
