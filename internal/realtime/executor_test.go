package realtime

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"entk/internal/pilot"
)

func newTestExecutor(t *testing.T) *Executor {
	t.Helper()
	x, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	return x
}

func shReq(unit string, attempt int, script string) pilot.ExecRequest {
	return pilot.ExecRequest{
		PilotID: 1, PilotCores: 4, Unit: unit, Attempt: attempt,
		Kernel: "test", Executable: "/bin/sh", Args: []string{"-c", script}, Cores: 1,
	}
}

func TestCaptureAndEnv(t *testing.T) {
	x := newTestExecutor(t)
	req := shReq("cap", 2, `echo "unit=$ENTK_UNIT attempt=$ENTK_ATTEMPT cores=$ENTK_CORES pilot=$ENTK_PILOT"; echo oops >&2`)
	if err := x.RunUnit(req); err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	out, err := os.ReadFile(filepath.Join(x.Dir(), "cap.a02.out"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(out)), "unit=cap attempt=2 cores=1 pilot=1"; got != want {
		t.Errorf("stdout %q, want %q", got, want)
	}
	errb, err := os.ReadFile(filepath.Join(x.Dir(), "cap.a02.err"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(errb)); got != "oops" {
		t.Errorf("stderr %q, want %q", got, "oops")
	}
}

func TestExitStatusBecomesError(t *testing.T) {
	x := newTestExecutor(t)
	err := x.RunUnit(shReq("bad", 0, "echo diagnostics >&2; exit 3"))
	if err == nil {
		t.Fatal("want error for exit 3")
	}
	// The error must carry enough to debug the failure: unit, attempt,
	// and where stderr went.
	for _, want := range []string{"bad", "attempt 0", ".err"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestOversizedRequestIsError(t *testing.T) {
	x := newTestExecutor(t)
	req := shReq("big", 0, "true")
	req.Cores = 8 // pilot has 4
	if err := x.RunUnit(req); err == nil {
		t.Fatal("want error for a request larger than the pilot")
	}
}

func TestModelledKernelSleepsAndWakesOnRelease(t *testing.T) {
	x := newTestExecutor(t)
	req := pilot.ExecRequest{PilotID: 1, PilotCores: 2, Unit: "model", Cores: 1,
		Model: 30 * time.Second}
	done := make(chan error, 1)
	go func() { done <- x.RunUnit(req) }()
	time.Sleep(50 * time.Millisecond)
	x.ReleasePilot(1)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("released modelled sleep should report interruption")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("modelled sleep did not wake on ReleasePilot")
	}
}

// waitGone polls until the process group is fully dead (ESRCH) — the
// no-orphans assertion.
func waitGone(t *testing.T, pgid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := syscall.Kill(-pgid, 0); err == syscall.ESRCH {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("process group %d still alive after release", pgid)
}

func TestReleasePilotKillsRunningGroup(t *testing.T) {
	x := newTestExecutor(t)
	done := make(chan error, 1)
	go func() { done <- x.RunUnit(shReq("long", 0, "sleep 30")) }()

	var pgid int
	deadline := time.Now().Add(5 * time.Second)
	for pgid == 0 && time.Now().Before(deadline) {
		if gs := x.RunningGroups(); len(gs) > 0 {
			pgid = gs[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if pgid == 0 {
		t.Fatal("unit process never appeared")
	}

	x.ReleasePilot(1)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("killed unit should report an exec error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunUnit did not return after ReleasePilot")
	}
	waitGone(t, pgid)
	if gs := x.RunningGroups(); len(gs) != 0 {
		t.Errorf("RunningGroups after release: %v", gs)
	}
}

func TestWindowEndReapsBackgroundedChildren(t *testing.T) {
	x := newTestExecutor(t)
	// The shell backgrounds a long sleep and exits successfully: the
	// grandchild must not outlive the unit's window.
	if err := x.RunUnit(shReq("bg", 0, "sleep 60 & echo $!")); err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	out, err := os.ReadFile(filepath.Join(x.Dir(), "bg.a00.out"))
	if err != nil {
		t.Fatal(err)
	}
	pidStr := strings.TrimSpace(string(out))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// The grandchild re-parents to init on its shell's exit; poll
		// until the kill has landed and the zombie (if any) is reaped.
		if err := syscall.Kill(atoiOrFail(t, pidStr), 0); err == syscall.ESRCH {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("backgrounded child %s survived the unit window", pidStr)
}

func TestCloseRefusesNewWork(t *testing.T) {
	x, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	x.Close()
	x.Close() // idempotent
	if err := x.RunUnit(shReq("late", 0, "true")); err == nil {
		t.Fatal("closed executor accepted work")
	}
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("not a pid: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	if n == 0 {
		t.Fatalf("not a pid: %q", s)
	}
	return n
}

// TestCloseRacesRunUnit pins "no process group escapes Close" now that
// forks of different units overlap: Close lands at varying points of 64
// concurrent RunUnit calls, every call must still return (an escaped
// child would sleep on), and every process that got as far as printing
// its pid — its pgid, each unit being its own group leader — is gone.
func TestCloseRacesRunUnit(t *testing.T) {
	const units = 64
	for round, delay := range []time.Duration{0, time.Millisecond, 4 * time.Millisecond, 15 * time.Millisecond} {
		x, err := New(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{}, units)
		for i := 0; i < units; i++ {
			req := shReq("race."+strconv.Itoa(i), round, "echo $$; exec sleep 30")
			req.PilotCores = units
			go func() {
				_ = x.RunUnit(req) // refused, killed or — never — finished; all fine
				done <- struct{}{}
			}()
		}
		time.Sleep(delay)
		x.Close()
		for i := 0; i < units; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: %d of %d RunUnit calls still blocked after Close", round, units-i, units)
			}
		}
		outs, err := filepath.Glob(filepath.Join(x.Dir(), "race.*.out"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range outs {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if pid := strings.TrimSpace(string(b)); pid != "" {
				waitGone(t, atoiOrFail(t, pid))
			}
		}
		if gs := x.RunningGroups(); len(gs) != 0 {
			t.Errorf("round %d: RunningGroups after Close: %v", round, gs)
		}
	}
}

// TestOutputCap: a child that writes without pause keeps its first
// OutputCap bytes and one marker line per stream, not the hundreds of
// megabytes it produced, and still finishes as an ordinary success.
func TestOutputCap(t *testing.T) {
	if _, err := exec.LookPath("yes"); err != nil {
		t.Skip("no yes(1) on this machine")
	}
	x := newTestExecutor(t)
	if err := x.RunUnit(shReq("chatty", 0, "yes chatter & a=$!; yes chatter >&2 & b=$!; sleep 0.2; kill $a $b")); err != nil {
		t.Fatalf("RunUnit: %v", err)
	}
	for _, ext := range []string{".out", ".err"} {
		b, err := os.ReadFile(filepath.Join(x.Dir(), "chatty.a00"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if want := OutputCap + len(truncationMarker); len(b) != want {
			t.Errorf("%s: %d bytes captured, want the %d-byte cap plus marker = %d", ext, len(b), OutputCap, want)
		}
		if !strings.HasSuffix(string(b), truncationMarker) {
			t.Errorf("%s: capture does not end with the truncation marker", ext)
		}
	}
}

// RunningGroups snapshots the live process-group ids (tests: orphan
// checks via kill(-pgid, 0)).
func (x *Executor) RunningGroups() []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	groups := make([]int, 0, len(x.procs))
	for p := range x.procs {
		groups = append(groups, p.pgid)
	}
	return groups
}
