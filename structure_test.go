// Structure audit: the two forks PR 24 closed must not grow back. There is
// one stream interface (trace.Stream, a batch source; trace.Buffered is the
// one per-instruction reader and it is a concrete type) and one place that
// builds core models and advances simulated time (internal/multicore, with
// internal/simrun's model registry as its factory). The test walks every
// non-test source outside benchmark/ and names what breaks either rule. A
// second walk keeps runnable programs under cmd/.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestOneStreamInterfaceOneTimedLoop(t *testing.T) {
	const mod = "repro/internal/"
	// Constructors of the core models, by import path.
	coreCtors := map[string][]string{
		mod + "core":   {"New", "NewWithOptions"},
		mod + "ooo":    {"New"},
		mod + "oneipc": {"New"},
	}
	mayBuildCores := func(dir string) bool {
		return dir == "internal/multicore" || dir == "internal/simrun"
	}

	var bad []string
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		files++
		dir := filepath.ToSlash(filepath.Dir(path))
		report := func(n ast.Node, format string, args ...any) {
			bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
		}

		// The names this file knows the repository's packages by.
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
			if dir == "internal/sampling" && (p == mod+"core" || p == mod+"ooo" || p == mod+"sim") {
				report(im, "internal/sampling imports %s: its timed regions are multicore driver calls", p)
			}
		}
		qualified := func(e ast.Expr) (pkg, name string) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					return imports[x.Name], sel.Sel.Name
				}
			}
			return "", ""
		}
		// instBool reports a result list spelling (isa.Inst, bool).
		instBool := func(ft *ast.FuncType) bool {
			if ft.Results == nil || len(ft.Results.List) != 2 {
				return false
			}
			p, n := qualified(ft.Results.List[0].Type)
			b, _ := ft.Results.List[1].Type.(*ast.Ident)
			return p == mod+"isa" && n == "Inst" && b != nil && b.Name == "bool"
		}

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "Next" && n.Recv != nil && instBool(n.Type) {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, _ := recv.(*ast.Ident); dir != "internal/trace" || id == nil || id.Name != "Buffered" {
						report(n, "per-instruction Next method: streams are batch sources, read one by one through trace.Buffered")
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 && m.Names[0].Name == "Next" && instBool(ft) {
						report(m, "interface with a per-instruction Next method: trace.Stream is the one stream interface")
					}
				}
			case *ast.Ident:
				if n.Name == "nextBatcher" {
					report(n, "nextBatcher is back")
				}
			case *ast.SelectorExpr:
				if p, name := qualified(n); p == mod+"trace" && (name == "Batched" || name == "BatchStream") {
					report(n, "trace.%s exists for benchmark/ only; use trace.Stream", name)
				}
			case *ast.CallExpr:
				if p, name := qualified(n.Fun); p != "" && !mayBuildCores(dir) {
					for _, ctor := range coreCtors[p] {
						if name == ctor {
							report(n, "%s.%s outside internal/multicore and internal/simrun: time the region with multicore.Run or multicore.Measure", p, name)
						}
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Step" && len(n.Args) == 1 && dir != "internal/multicore" {
					report(n, "a core is stepped outside internal/multicore: the driver is the one clock")
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no source files found (test must run from the repo root)")
	}
	if len(bad) > 0 {
		t.Fatalf("the stream or driver fork is growing back:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestSweepPointIsASpec: a cmd/sweep point is described only by a
// simrun.Spec, so it has a wire form and runs on either executor; the sweep
// never builds a scenario from options. And no exported simrun option takes
// a func, so no sweep point can be described by a closure again.
func TestSweepPointIsASpec(t *testing.T) {
	var bad []string
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd/sweep", "internal/simrun"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || dir != "cmd/sweep" || (sel.Sel.Name != "New" && sel.Sel.Name != "MustNew") {
						return true
					}
					if x, _ := sel.X.(*ast.Ident); x != nil && x.Name == "simrun" {
						bad = append(bad, fmt.Sprintf("%s: simrun.%s in cmd/sweep: describe the point as a simrun.Spec", fset.Position(n.Pos()), sel.Sel.Name))
					}
				case *ast.FuncDecl:
					res := n.Type.Results
					if dir != "internal/simrun" || n.Recv != nil || !n.Name.IsExported() || res == nil || len(res.List) != 1 {
						return true
					}
					if id, _ := res.List[0].Type.(*ast.Ident); id == nil || id.Name != "Option" {
						return true
					}
					for _, p := range n.Type.Params.List {
						if _, isFunc := p.Type.(*ast.FuncType); isFunc {
							bad = append(bad, fmt.Sprintf("%s: option simrun.%s takes a func: describe the machine as data (Machine, knobs)", fset.Position(n.Pos()), n.Name.Name))
						}
					}
				}
				return true
			})
		}
	}
	if len(bad) > 0 {
		t.Fatalf("a sweep point is code again:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestMainPackagesLiveUnderCmd: the runnable programs are the cmd/
// binaries. A demo of an API is an Example function whose // Output: block
// go test checks, and a study is a cmd/experiments table, so neither is a
// package main anywhere else. The benchmark harness and this test-only
// root package are the exceptions.
func TestMainPackagesLiveUnderCmd(t *testing.T) {
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "cmd" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || filepath.Dir(path) == "." {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			bad = append(bad, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("package main outside cmd/ (make it an Example or an experiments table):\n  %s", strings.Join(bad, "\n  "))
	}
}
