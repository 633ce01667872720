// Package realtime is the local process backend for real-mode execution:
// the pilot.UnitRunner that turns a unit's execution window into an
// actual OS process on the local machine.
//
// The discrete-event runtime above it is unchanged — batch admission,
// agent scheduling, staging, retries, and profiling all run exactly as in
// simulation, just on the wall clock (vclock.NewWall), where the delays
// that model the toolkit's own work are not slept (Clock.Charge), so the
// report's overhead terms are measured. This package only owns the
// window between exec_start and exec_stop:
//
//   - Kernels carrying a real command (UnitDescription.Executable/Args,
//     campaign schema field "executable") are exec'd with their stdout
//     and stderr captured to per-unit files under the executor's
//     directory, the first OutputCap bytes of each stream. A non-zero
//     exit becomes the unit's failure and burns a retry through the
//     ordinary machinery.
//   - Kernels without a command sleep their cost-model duration in wall
//     time — "modelled kernels", which is what makes a sim-only campaign
//     runnable in real mode at all and what the sim-vs-real parity test
//     exercises.
//   - Core-count enforcement: each pilot gets a bounded slot pool sized
//     to PilotSpec.Cores, and a window holds Cores slots for its
//     duration. The agent's scheduler already guarantees the bound, so
//     the pool is belt-and-braces; a request that cannot ever fit is an
//     error, not a deadlock.
//   - Teardown: every process is started in its own process group, and
//     ReleasePilot / Close kill the groups (SIGKILL to -pgid), so agent
//     teardown — drain, fault, walltime expiry, daemon shutdown — reaps
//     grandchildren too. No orphans.
package realtime

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"entk/internal/pilot"
)

// Config tunes an Executor.
type Config struct {
	// Dir receives per-unit capture files (<unit>.a<attempt>.out/.err).
	// Empty means a fresh temporary directory.
	Dir string
}

// OutputCap is how much of each of a unit's output streams is kept: the
// first 1 MiB of stdout and of stderr, followed by a one-line marker when
// more was written. The child writes its capture files directly — no
// pipe, no copy, nothing per byte in this process — so the cap is
// enforced on the files: cut back to OutputCap every trimEvery while the
// window lasts and once more when it ends. A chatty child therefore costs
// at most what it writes in one trimEvery beyond the cap, not the disk.
const OutputCap = 1 << 20

const truncationMarker = "\n[entk: output truncated at 1 MiB]\n"

const trimEvery = 100 * time.Millisecond

// Executor is the local process UnitRunner. Safe for concurrent use; one
// executor typically serves every pilot of a session.
type Executor struct {
	dir string
	env []string // inherited environment, built once

	// life is read-held from a window's closed check until its process
	// is in procs, and write-held by Close: forks of different units run
	// concurrently, yet none straddles Close — a process is either
	// refused or in the table Close kills from.
	life   sync.RWMutex
	closed bool

	mu     sync.Mutex // pilots, procs
	pilots map[int]*pilotState
	procs  map[*proc]struct{}
}

// pilotState is one pilot's slot pool plus its release latch.
type pilotState struct {
	cores int
	sem   chan struct{} // one token per core
	acq   sync.Mutex    // serializes multi-token acquisition (no interleaving)
	once  sync.Once
	gone  chan struct{} // closed by ReleasePilot: modelled sleeps wake early
}

// proc is one live process group.
type proc struct {
	pilotID int
	unit    string
	pgid    int
}

// New returns an Executor capturing unit output under cfg.Dir (a fresh
// temp directory when empty).
func New(cfg Config) (*Executor, error) {
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "entk-real-")
		if err != nil {
			return nil, fmt.Errorf("realtime: %w", err)
		}
		dir = d
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("realtime: %w", err)
	}
	return &Executor{
		dir:    dir,
		env:    os.Environ(),
		pilots: make(map[int]*pilotState),
		procs:  make(map[*proc]struct{}),
	}, nil
}

// Dir reports the capture directory.
func (x *Executor) Dir() string { return x.dir }

var _ pilot.UnitRunner = (*Executor)(nil)

// RunUnit implements pilot.UnitRunner: hold the unit's core slots, run
// the window (process or modelled sleep), release.
func (x *Executor) RunUnit(req pilot.ExecRequest) error {
	ps, err := x.pilotFor(req.PilotID, req.PilotCores)
	if err != nil {
		return err
	}
	cores := req.Cores
	if cores <= 0 {
		cores = 1
	}
	if cores > ps.cores {
		return fmt.Errorf("realtime: unit %q wants %d cores on a %d-core pilot", req.Unit, cores, ps.cores)
	}
	ps.acq.Lock()
	for i := 0; i < cores; i++ {
		ps.sem <- struct{}{}
	}
	ps.acq.Unlock()
	defer func() {
		for i := 0; i < cores; i++ {
			<-ps.sem
		}
	}()

	if req.Executable == "" {
		return x.sleepModel(ps, req)
	}
	return x.execProcess(ps, req)
}

// sleepModel is the modelled-kernel window: a wall sleep of the cost
// model's duration, cut short (with an error) if the pilot is released.
func (x *Executor) sleepModel(ps *pilotState, req pilot.ExecRequest) error {
	if req.Model <= 0 {
		return nil
	}
	t := time.NewTimer(req.Model)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ps.gone:
		return fmt.Errorf("realtime: unit %q interrupted: pilot %d released", req.Unit, req.PilotID)
	}
}

// capFile is one capture file. It is opened O_APPEND so that a trim
// takes the child's next write back to the cap with it instead of leaving
// a hole up to the child's old offset.
type capFile struct {
	*os.File
	trimmed bool
}

func createCapFile(path string) (*capFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	return &capFile{File: f}, nil
}

// trim cuts the file back to OutputCap if it has grown past it.
func (c *capFile) trim() {
	if fi, err := c.Stat(); err == nil && fi.Size() > OutputCap && c.Truncate(OutputCap) == nil {
		c.trimmed = true
	}
}

// finish trims one last time, marks a trimmed file and closes it. The
// window's process group has been killed by now, so the marker is the
// last line.
func (c *capFile) finish() {
	c.trim()
	if c.trimmed {
		_, _ = c.WriteString(truncationMarker)
	}
	c.Close()
}

// trimmer trims a window's capture files every trimEvery. It is a
// re-armed runtime timer, not a goroutine: a window shorter than
// trimEvery — every /bin/true — arms and stops one timer and starts
// nothing.
type trimmer struct {
	mu    sync.Mutex
	files []*capFile // nil once stopped
	timer *time.Timer
}

// keepTrimmed trims files every trimEvery until the returned stop is
// called; stop returns once no trim is in flight, so a trim never
// overlaps finish.
func keepTrimmed(files ...*capFile) (stop func()) {
	tr := &trimmer{files: files}
	tr.mu.Lock()
	tr.timer = time.AfterFunc(trimEvery, tr.tick)
	tr.mu.Unlock()
	return tr.stop
}

func (tr *trimmer) tick() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.files == nil {
		return
	}
	for _, f := range tr.files {
		f.trim()
	}
	tr.timer.Reset(trimEvery)
}

func (tr *trimmer) stop() {
	tr.mu.Lock()
	tr.files = nil
	tr.timer.Stop() // under mu: a tick in flight has re-armed by now
	tr.mu.Unlock()
}

// execProcess runs the unit's command in its own process group with
// captured output, blocking until it exits.
func (x *Executor) execProcess(ps *pilotState, req pilot.ExecRequest) error {
	base := fmt.Sprintf("%s.a%02d", sanitize(req.Unit), req.Attempt)
	errPath := filepath.Join(x.dir, base+".err")
	stdout, err := createCapFile(filepath.Join(x.dir, base+".out"))
	if err != nil {
		return fmt.Errorf("realtime: unit %q: %w", req.Unit, err)
	}
	defer stdout.finish()
	stderr, err := createCapFile(errPath)
	if err != nil {
		return fmt.Errorf("realtime: unit %q: %w", req.Unit, err)
	}
	defer stderr.finish()

	cmd := exec.Command(req.Executable, req.Args...)
	cmd.Stdout = stdout.File
	cmd.Stderr = stderr.File
	cmd.Env = append(x.env[:len(x.env):len(x.env)],
		"ENTK_UNIT="+req.Unit,
		"ENTK_KERNEL="+req.Kernel,
		"ENTK_PILOT="+strconv.Itoa(req.PilotID),
		"ENTK_ATTEMPT="+strconv.Itoa(req.Attempt),
		"ENTK_CORES="+strconv.Itoa(req.Cores),
	)
	// Own process group: teardown kills the whole tree, not just the
	// immediate child, so shell kernels cannot leak grandchildren.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}

	p, err := x.start(cmd, ps, req)
	if err != nil {
		return err
	}
	defer keepTrimmed(stdout, stderr)()

	werr := cmd.Wait()
	x.mu.Lock()
	delete(x.procs, p)
	x.mu.Unlock()
	// The window is over: reap whatever is left of the group. A shell
	// kernel's backgrounded children would otherwise outlive the unit —
	// unkillable later, since the proc table only tracks live windows.
	killGroup(p.pgid)
	if werr != nil {
		return fmt.Errorf("realtime: unit %q attempt %d: %s %s: %w (stderr: %s)",
			req.Unit, req.Attempt, req.Executable, strings.Join(req.Args, " "), werr, errPath)
	}
	return nil
}

// start forks the unit's process and enters it in the proc table, unless
// the executor is closed. A pilot released before the process was in the
// table has missed it, so the process is killed here instead.
func (x *Executor) start(cmd *exec.Cmd, ps *pilotState, req pilot.ExecRequest) (*proc, error) {
	x.life.RLock()
	defer x.life.RUnlock()
	if x.closed {
		return nil, fmt.Errorf("realtime: unit %q: executor closed", req.Unit)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("realtime: unit %q: %w", req.Unit, err)
	}
	p := &proc{pilotID: req.PilotID, unit: req.Unit, pgid: cmd.Process.Pid}
	x.mu.Lock()
	x.procs[p] = struct{}{}
	x.mu.Unlock()
	if isClosed(ps.gone) {
		killGroup(p.pgid)
	}
	return p, nil
}

// ReleasePilot implements pilot.UnitRunner: kill every process group the
// pilot still has running and wake its modelled sleeps. Idempotent.
func (x *Executor) ReleasePilot(pilotID int) {
	x.mu.Lock()
	ps := x.pilots[pilotID]
	x.mu.Unlock()
	// Latch first, snapshot second: a window that enters the table after
	// the snapshot then finds the latch closed and kills itself (start).
	if ps != nil {
		ps.once.Do(func() { close(ps.gone) })
	}
	x.mu.Lock()
	var groups []int
	for p := range x.procs {
		if p.pilotID == pilotID {
			groups = append(groups, p.pgid)
		}
	}
	x.mu.Unlock()
	for _, pg := range groups {
		killGroup(pg)
	}
}

// Close reaps every process group of every pilot. The executor refuses
// new work afterwards. Idempotent.
func (x *Executor) Close() {
	x.life.Lock()
	x.closed = true
	x.life.Unlock()
	x.mu.Lock()
	var pss []*pilotState
	for _, ps := range x.pilots {
		pss = append(pss, ps)
	}
	var groups []int
	for p := range x.procs {
		groups = append(groups, p.pgid)
	}
	x.mu.Unlock()
	for _, ps := range pss {
		ps.once.Do(func() { close(ps.gone) })
	}
	for _, pg := range groups {
		killGroup(pg)
	}
}

func (x *Executor) pilotFor(id, cores int) (*pilotState, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("realtime: pilot %d has %d cores", id, cores)
	}
	x.life.RLock()
	defer x.life.RUnlock()
	if x.closed {
		return nil, fmt.Errorf("realtime: executor closed")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if ps, ok := x.pilots[id]; ok {
		return ps, nil
	}
	ps := &pilotState{
		cores: cores,
		sem:   make(chan struct{}, cores),
		gone:  make(chan struct{}),
	}
	x.pilots[id] = ps
	return ps, nil
}

// killGroup SIGKILLs an entire process group. ESRCH (already gone) is
// the success case of a reap.
func killGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL)
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// sanitize maps a unit name onto a safe file-name fragment.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}
