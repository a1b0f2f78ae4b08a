package demikernel

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerlessExports are the exports the guard below accepts with no
// caller, each with the part of the paper or DESIGN.md it implements.
var callerlessExports = map[string]string{
	"internal/libos/catmint.Transport.ExposeMemory": "DESIGN.md §2 row 24: one-sided remote-memory queues (PAPER.md §4.1)",
	"internal/libos/catmint.Window.Revoke":          "DESIGN.md §2 row 24: one-sided remote-memory queues (PAPER.md §4.1)",
	"internal/nic.QueueGroup.AddSteering":           "DESIGN.md §4 multi-tenant protection argument (1): flow steering is a grant (§3)",
}

// TestEveryExportHasACaller fails on any exported function, or exported
// method of an exported type, declared in a non-test file outside
// benchmark/ whose name is mentioned nowhere else: not in a non-test file
// of the module (benchmark/ included) outside the declaration itself, and
// not in a _test.go file of another directory. A name only its own
// package's tests use is code the product never runs. The scan is by
// name, so it is coarse: a name shared with anything else passes.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, dir, name string
	}
	var decls []decl
	prodUses := map[string]int{}             // name -> mentions in non-test files
	testDirs := map[string]map[string]bool{} // name -> directories of test files mentioning it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		for _, top := range f.Decls {
			// A declaration's mentions of its own name (recursion, a
			// delegating method of the same name) do not count.
			self := ""
			if fn, ok := top.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if !isTest && dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") &&
					fn.Name.IsExported() && recvExported(fn) {
					decls = append(decls, decl{funcKey(dir, fn), dir, self})
				}
			}
			ast.Inspect(top, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || id.Name == self {
					return true
				}
				if isTest {
					if testDirs[id.Name] == nil {
						testDirs[id.Name] = map[string]bool{}
					}
					testDirs[id.Name][dir] = true
				} else {
					prodUses[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, d := range decls {
		if prodUses[d.name] > 0 || callerlessExports[d.key] != "" {
			continue
		}
		used := false
		for dir := range testDirs[d.name] {
			used = used || dir != d.dir
		}
		if !used {
			orphans = append(orphans, d.key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exports have no caller outside their own package's tests; delete them, or move them into the test that uses them:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
	if len(callerlessExports) > 6 {
		t.Errorf("%d allowlisted exports; at most 6", len(callerlessExports))
	}
}

// wallClockSites are the only places outside benchmark/,
// internal/experiments and internal/simclock where non-test code may read
// the wall clock, sleep on it or arm a timer on it, each with its reason.
// A site is a file and the function or method in it, or a file alone for
// all of it. Everything else keeps time by its node's simclock.Clock, so a
// test that steps that clock moves every timer, wait and deadline on the
// node.
var wallClockSites = map[string]string{
	"internal/telemetry/registry.go Registry.Snapshot": "a telemetry snapshot's wall-clock stamp",
	"internal/telemetry/trace.go Tracer.Instant":       "a trace event's wall-clock stamp",
	"internal/uring/uring.go Pair.stamp":               "a ring span's issue stamp",
	"internal/uring/uring.go Pair.complete":            "a ring span's done stamp",
	"internal/uring/uring.go Pair.record":              "a ring span's consume stamp",
	"internal/uring/uring.go Pair.Harvest":             "a ring span's harvest stamp",
	"internal/core/core.go LibOS.Background":           "the polling thread's idle yield, until item 2's driver",
	"internal/chaos/chaos.go":                          "the chaos schedule runs on the wall clock until the whole cluster steps on one clock",
	"conservation.go":                                  "Cluster.Quiesce polls for wall time until the whole cluster steps on one clock",
}

// wallClockCalls are the time package's functions that read the wall
// clock (the first three) or wait on it.
var wallClockCalls = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// TestOneClock fails on a call of one of wallClockCalls, or the function
// passed as a value, in a non-test file outside benchmark/,
// internal/experiments and internal/simclock, anywhere but at the sites
// wallClockSites allows.
func TestOneClock(t *testing.T) {
	fset := token.NewFileSet()
	var stray []string
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			switch {
			case path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"),
				path == "benchmark", path == "internal/experiments", path == "internal/simclock":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, top := range f.Decls {
			site := path
			if fn, ok := top.(*ast.FuncDecl); ok {
				site = path + " " + fn.Name.Name
				if r := recvName(fn); r != "" {
					site = path + " " + r + "." + fn.Name.Name
				}
			}
			ast.Inspect(top, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" || !wallClockCalls[sel.Sel.Name] {
					return true
				}
				switch {
				case wallClockSites[site] != "":
					used[site] = true
				case wallClockSites[path] != "":
					used[path] = true
				default:
					stray = append(stray, fmt.Sprintf("%s: time.%s in %s", fset.Position(sel.Pos()), sel.Sel.Name, site))
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) > 0 {
		t.Errorf("%d wall-clock reads or waits outside wallClockSites; read or poll the node's simclock.Clock instead:\n\t%s",
			len(stray), strings.Join(stray, "\n\t"))
	}
	for site := range wallClockSites {
		if !used[site] {
			t.Errorf("wallClockSites allows %q, which reads no wall clock: drop it", site)
		}
	}
}

// recvExported reports whether fn is a function, or a method of an
// exported type.
func recvExported(fn *ast.FuncDecl) bool {
	return fn.Recv == nil || ast.IsExported(recvName(fn))
}

// recvName is the name of fn's receiver type, pointer and type
// parameters stripped.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// funcKey names a declaration as dir.Func or dir.Type.Method, the root
// package's dir as "demikernel".
func funcKey(dir string, fn *ast.FuncDecl) string {
	if dir == "." {
		dir = "demikernel"
	}
	if r := recvName(fn); r != "" {
		return dir + "." + r + "." + fn.Name.Name
	}
	return dir + "." + fn.Name.Name
}
