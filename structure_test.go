// Structure audit: the two forks PR 24 closed must not grow back. There is
// one stream interface (trace.Stream, a batch source; trace.Buffered is the
// one per-instruction reader and it is a concrete type) and one place that
// builds core models and advances simulated time (internal/multicore, with
// internal/simrun's model registry as its factory). The test walks every
// non-test source outside benchmark/ and names what breaks either rule.
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
