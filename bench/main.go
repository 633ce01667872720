// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the toolkit would see, and a traced
// per-layer budget that explains them. See README.md in this directory
// for the catalogue and BENCHMARK.json at the repository root for the
// contract the driver checks.
//
//	go run ./bench                  every workload: untraced pass, then traced pass
//	go run ./bench -only stress-1m  one workload, both passes
//	go run ./bench -aa              the untraced pass twice, A/A differences beside the bounds
//	go run ./bench -quick           1/64 scale smoke
//
// Each measurement runs in a fresh child process of this binary, which
// is also what the driver invokes directly:
//
//	go run ./bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		only     = flag.String("only", "", "run one workload (both passes)")
		quick    = flag.Bool("quick", false, "1/64 scale smoke")
		out      = flag.String("out", "", "write metrics, environment, spans and report columns as JSON")
		aa       = flag.Bool("aa", false, "run the untraced pass twice and compare the two against the bounds")
		workload = flag.String("workload", "", "measure this workload in this process (what the driver and the suite's children run)")
		seconds  = flag.Float64("seconds", runSeconds, "with -workload: how long to measure")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("bench: unexpected argument %q", flag.Arg(0)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scratch, err := newScratch()
	if err != nil {
		fatal(err)
	}
	code := 0
	if *workload != "" {
		// An interrupted measurement must not leave state directories
		// behind, and a workload cannot be cancelled midway: remove and
		// leave. (The suite instead stops its child and waits for it.)
		go func() {
			<-ctx.Done()
			removeScratch(scratch)
			os.Exit(interrupted)
		}()
		code = childMain(childOpts{workload: *workload, seed: *seed, seconds: *seconds,
			traced: *trace != 0, quick: *quick, scratch: scratch, out: os.Stdout}, *out)
	} else {
		code = suiteMain(ctx, suiteOpts{seed: *seed, only: *only, quick: *quick, out: *out, aa: *aa, scratch: scratch})
	}
	removeScratch(scratch)
	os.Exit(code)
}

// interrupted is the exit status after SIGINT or SIGTERM.
const interrupted = 130

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// scratchRoot holds every process's scratch directory, inside the
// working directory: the benchmark writes nowhere else.
const scratchRoot = ".bench_tmp"

func newScratch() (string, error) {
	dir := filepath.Join(scratchRoot, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: scratch directory: %w", err)
	}
	return dir, nil
}

// removeScratch deletes dir. It is renamed first, so that a daemon still
// persisting campaigns (an interrupted run) finds its paths gone instead
// of refilling the directory behind the removal.
func removeScratch(dir string) {
	if dead := dir + ".dead"; os.Rename(dir, dead) == nil {
		dir = dead
	}
	os.RemoveAll(dir)
	os.Remove(scratchRoot) // succeeds only when no other run is using it
}

// childMain measures one workload here and returns the exit code: 0
// only for a run that measured and found every output correct.
func childMain(o childOpts, outFile string) int {
	res, det, err := runChild(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if outFile != "" {
		if err := writeJSON(outFile, map[string]any{"result": res, "detail": det}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

type suiteOpts struct {
	seed    int64
	only    string
	quick   bool
	out     string
	aa      bool
	scratch string
}

// childRun is one child's outcome as the suite keeps it.
type childRun struct {
	Workload string  `json:"workload"`
	Pass     string  `json:"pass"`
	WallS    float64 `json:"wall_s"`
	Result   *result `json:"result"`
	Detail   *detail `json:"detail"`
}

// suiteMain runs every selected workload in child processes: the
// untraced pass over all of them, then the traced pass (or, with -aa,
// the untraced pass a second time).
func suiteMain(ctx context.Context, o suiteOpts) int {
	selected := workloads
	if o.only != "" {
		w := findWorkload(o.only)
		if w == nil {
			fatal(fmt.Errorf("bench: unknown workload %q", o.only))
		}
		selected = []workloadDef{*w}
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	passes := []struct {
		name   string
		traced bool
	}{{"untraced", false}, {"traced", true}}
	if o.aa {
		passes[0].name, passes[1].name, passes[1].traced = "A", "B", false
	}

	code := 0
	var all []childRun
	for _, pass := range passes {
		for _, w := range selected {
			run, err := spawnChild(ctx, exe, o, w.name, pass.traced)
			if ctx.Err() != nil {
				// Interrupted: the child was stopped and waited for, and its
				// scratch is gone. Nothing measured so far is reported.
				return interrupted
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (%s pass): %v\n", w.name, pass.name, err)
				code = 1
			}
			if run != nil {
				run.Pass = pass.name
				all = append(all, *run)
			}
		}
	}
	if o.aa && !compareAA(os.Stdout, all) {
		code = 1
	}
	if o.out != "" {
		doc := map[string]any{"environment": environment(o), "runs": all}
		if err := writeJSON(o.out, doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	return code
}

// spawnChild runs one measurement in a child process, forwards its
// metric lines, and returns what it reported. The child is told to stop
// when ctx ends and killed if it does not.
func spawnChild(ctx context.Context, exe string, o suiteOpts, workload string, traced bool) (*childRun, error) {
	detailFile := filepath.Join(o.scratch, fmt.Sprintf("%s-%v.json", workload, traced))
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-out", detailFile}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()
	if cmd.Process != nil {
		// A child that was killed could not remove its own scratch.
		pid := strconv.Itoa(cmd.Process.Pid)
		os.RemoveAll(filepath.Join(scratchRoot, pid))
		os.RemoveAll(filepath.Join(scratchRoot, pid+".dead"))
	}

	// Forward everything but the result object.
	var lastLine string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if lastLine != "" {
			fmt.Println(lastLine)
		}
		lastLine = sc.Text()
	}
	var exitErr *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exitErr) {
		return nil, runErr
	}
	var file struct {
		Result *result `json:"result"`
		Detail *detail `json:"detail"`
	}
	b, err := os.ReadFile(detailFile)
	if err != nil {
		if lastLine != "" {
			fmt.Println(lastLine)
		}
		return nil, fmt.Errorf("child reported nothing (%v)", runErr)
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("child detail: %w", err)
	}
	run := &childRun{Workload: workload, WallS: wall, Result: file.Result, Detail: file.Detail}
	if runErr != nil {
		return run, fmt.Errorf("output check failed: %s", strings.Join(file.Detail.Problems, "; "))
	}
	return run, nil
}

// compareAA prints, for every workload and end-to-end metric, the two
// runs' values and their relative difference beside the bound, and
// reports whether every difference stayed inside its bound.
func compareAA(w io.Writer, all []childRun) bool {
	byKey := make(map[string]map[string]*result)
	var order []string
	for _, r := range all {
		if byKey[r.Workload] == nil {
			byKey[r.Workload] = make(map[string]*result)
			order = append(order, r.Workload)
		}
		byKey[r.Workload][r.Pass] = r.Result
	}
	ok := true
	fmt.Fprintf(w, "\n%-15s %-26s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, wl := range order {
		a, b := byKey[wl]["A"], byKey[wl]["B"]
		if a == nil || b == nil {
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if !(diff <= m.Bound) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-15s %-26s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", wl, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

// environment stamps a result file with where its numbers came from.
func environment(o suiteOpts) map[string]any {
	env := map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"seed":        o.seed,
		"quick":       o.quick,
		"run_seconds": runSeconds,
		"time":        time.Now().UTC().Format(time.RFC3339),
		"commit":      "unknown",
		"kernel":      "unknown",
		"reps":        "time-driven; see info.reps per workload",
		"spread":      "see info.rep_spread_pct per workload (IQR/median of units_per_s over repetitions)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if env["commit"] == "unknown" {
		// "go run" does not stamp binaries; ask git, if this is a work tree.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}
