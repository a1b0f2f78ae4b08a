package demikernel

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
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
// benchmark/ that nothing calls outside its own package's tests. A name
// only its own package's tests use is code the product never runs.
//
// A package-level function F of package p counts as called where it is
// written as <name>.F in a file that imports p under that name, or as a
// bare F inside p: in a non-test file of the module (benchmark/
// included), or in a _test.go file of another directory. A method is
// matched by name alone, so it is coarse: a method name mentioned
// anywhere else passes.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, dir, name string
		method         bool
	}
	var decls []decl
	// A method is keyed by its name, a package-level function F of the
	// package in dir by dir.F.
	prodUses := map[string]bool{}            // key -> used in a non-test file
	testDirs := map[string]map[string]bool{} // key -> directories of test files using it
	use := func(key, dir string, isTest bool) {
		if !isTest {
			prodUses[key] = true
			return
		}
		if testDirs[key] == nil {
			testDirs[key] = map[string]bool{}
		}
		testDirs[key][dir] = true
	}
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
		imports := moduleImports(f) // import name -> package dir
		for _, top := range f.Decls {
			// A declaration's mentions of its own name (recursion, a
			// delegating method of the same name) do not count.
			self := ""
			if fn, ok := top.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if !isTest && dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") &&
					fn.Name.IsExported() && recvExported(fn) {
					decls = append(decls, decl{funcKey(dir, fn), dir, self, fn.Recv != nil})
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					// x.F is a qualified call when x names an import,
					// and never a bare F.
					if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						use(imports[pkg.Name]+"."+sel.Sel.Name, dir, isTest)
					} else {
						ast.Inspect(sel.X, visit)
					}
					if sel.Sel.Name != self {
						use(sel.Sel.Name, dir, isTest)
					}
					return false
				}
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					use(id.Name, dir, isTest)
					use(dir+"."+id.Name, dir, isTest)
				}
				return true
			}
			ast.Inspect(top, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, d := range decls {
		if callerlessExports[d.key] != "" {
			continue
		}
		key := d.name
		if !d.method {
			key = d.dir + "." + d.name
		}
		used := prodUses[key]
		for dir := range testDirs[key] {
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

// moduleImports maps the name each of f's imports of this module's
// packages goes by in f to the package's directory ("." for the root).
func moduleImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (p != "demikernel" && !strings.HasPrefix(p, "demikernel/")) {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = strings.TrimPrefix(strings.TrimPrefix(p, "demikernel"), "/")
		if out[name] == "" {
			out[name] = "."
		}
	}
	return out
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
	"internal/core/core.go LibOS.Background":           "the polling thread's idle yield: frames arrive with no deadline, so a poller parked until its next timer would miss them",
	"internal/chaos/chaos.go Engine.Run":               "the real-time yield of the CPU between Steps of a schedule kept on its clock",
	"internal/chaos/chaos.go HostileTenant.flood":      "the flood's pause between bursts, which keeps its CPU away from the victims",
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
