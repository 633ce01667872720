package entk

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The product is what a binary or the public API reaches. Code that only a
// test calls lives in that test's _test.go files, beside its caller.
//
// linkAllow names each function that no binary links but that stays in the
// product anyway, with the reason it stays: it is public API (reachable
// through a name package entk exports), or a test in another package needs
// it. Keys are "<package path>.<name>" or
// "<package path>.<receiver type>.<name>".
var linkAllow = map[string]string{
	"entk.PlaceRoundRobin":  apiFunc,
	"entk.Resources":        apiFunc,
	"entk.LookupResource":   apiFunc,
	"entk.RegisterResource": apiFunc,
	"entk.resourceNames":    "called by entk.Resources",

	"entk/internal/cluster.Names":    "called by entk.Resources",
	"entk/internal/cluster.Register": "called by entk.RegisterResource",

	"entk/internal/core.AppManager.Binding":          apiAlias,
	"entk/internal/core.Composite.PatternName":       apiAlias,
	"entk/internal/core.Composite.TaskCount":         apiAlias,
	"entk/internal/core.Composite.validate":          apiAlias + "; Execute validates every Pattern",
	"entk/internal/core.ResourceHandle.BindingLabel": apiAlias,
	"entk/internal/core.ResourceHandle.Pilot":        apiAlias,
	"entk/internal/core.ResourceHandle.TotalCores":   apiAlias,
	"entk/internal/core.ResourceSet.AddPilot":        apiAlias,
	"entk/internal/core.ResourceSet.DrainPilot":      apiAlias,
	"entk/internal/core.StageCtl.AppendStages":       apiAlias,
	"entk/internal/core.StageCtl.PipelineName":       apiAlias,
	"entk/internal/core.StageCtl.StageIndex":         apiAlias,
	"entk/internal/core.StageCtl.Units":              apiAlias,

	"entk/internal/kernels.Registry.Names":         apiAlias,
	"entk/internal/kernels.Spec.Executable":        apiAlias,
	"entk/internal/pilot.ComputeUnit.Entity":       apiAlias,
	"entk/internal/pilot.ComputeUnit.ExecDuration": apiAlias,

	"entk/internal/pilot.ComputePilot.DrainPending": apiPilot,
	"entk/internal/pilot.ComputePilot.Entity":       apiPilot,
	"entk/internal/pilot.ComputePilot.Quiesced":     apiPilot,
	"entk/internal/pilot.ComputePilot.Tags":         apiPilot,
	"entk/internal/pilot.agent.drainPending":        "called by ComputePilot.DrainPending",
	"entk/internal/pilot.agent.quiesce":             "called by ComputePilot.Quiesced",

	"entk/internal/profile.Profiler.Entities":   apiProfiler,
	"entk/internal/profile.Profiler.EntityName": apiProfiler,
	"entk/internal/profile.Profiler.LastID":     apiProfiler,
	"entk/internal/profile.Profiler.Name":       apiProfiler,
	"entk/internal/profile.Profiler.Record":     apiProfiler,
	"entk/internal/profile.Profiler.Timeline":   apiProfiler,

	"entk/internal/batch.Job.Finish":   "a test in another package needs it: internal/saga's TestBatchServiceLifecycle, through batchJob.SignalDone",
	"entk/internal/vclock.Event.Fired": "a test in another package needs it: internal/pilot's TestAgentNeverOversubscribes and TestAgentSoakAllPolicies",
}

const (
	apiFunc     = "public API: exported by package entk"
	apiAlias    = "public API: a method of a type that package entk aliases"
	apiPilot    = "public API: ResourceHandle.Pilot and ResourceSet.Pilots return a *ComputePilot"
	apiProfiler = "public API: entk.SaveCheckpoint and LoadCheckpoint take a *profile.Profiler"
)

// TestProductIsLinked builds every main under cmd/ and examples/ plus the
// benchmark, with inlining off in this module so that a called function
// keeps its symbol, and fails on each non-test function or method outside
// bench/ whose symbol none of them contains and that linkAllow does not
// name. A generic function counts as linked when any instantiation is.
func TestProductIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	mains, err := goList("./cmd/...", "./examples/...", "./bench")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"build", "-gcflags=entk/...=-l", "-o", dir + string(os.PathSeparator)}
	for _, path := range mains {
		args = append(args, path)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				key := symbolKey(strings.Join(f[2:], " "))
				if rest, ok := strings.CutPrefix(key, "main."); ok {
					key = mains[b.Name()] + "." + rest
				}
				linked[key] = true
			}
		}
	}

	var missing []string
	lines := 0
	used := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "entk"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "main" && fn.Recv == nil || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvType(fn.Recv.List[0].Type) + "." + name
			}
			key := pkg + "." + name
			if linked[key] {
				continue
			}
			if _, ok := linkAllow[key]; ok {
				used[key] = true
				continue
			}
			n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			lines += n
			missing = append(missing, fmt.Sprintf("%s:%d: %s (%d lines)", path, fset.Position(fn.Pos()).Line, key, n))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range linkAllow {
		if !used[key] {
			t.Errorf("linkAllow names %s, which is linked or gone: drop the entry", key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d functions (%d lines) that no binary links and linkAllow does not name; "+
			"move each beside the test that calls it, or delete it:\n%s",
			len(missing), lines, strings.Join(missing, "\n"))
	}
}

// goList maps the binary name of each main package among patterns to its
// import path.
func goList(patterns ...string) (map[string]string, error) {
	args := append([]string{"list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, err
	}
	mains := map[string]string{}
	for _, p := range strings.Fields(string(out)) {
		mains[p[strings.LastIndex(p, "/")+1:]] = p
	}
	return mains, nil
}

// symbolKey maps a linker symbol to "<package path>.<name>" or
// "<package path>.<receiver type>.<name>": it drops type arguments and the
// pointer-receiver spelling "(*T)".
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// recvType names a method's receiver type without its pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
