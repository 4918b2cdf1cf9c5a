// Structure audit: the two forks PR 24 closed must not grow back. There is
// one stream interface (trace.Stream, a batch source; trace.Buffered is the
// one per-instruction reader and it is a concrete type) and one place that
// builds core models and advances simulated time (internal/multicore,
// selecting the model by its multicore.Model enum). The test walks every
// non-test source outside benchmark/ and names what breaks either rule.
// Further walks keep the enum the one model selector, keep runnable
// programs under cmd/, keep each node's /metrics its only metrics surface,
// and keep deleted serving knobs and metric families deleted.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
)

func TestOneStreamInterfaceOneTimedLoop(t *testing.T) {
	const mod = "repro/internal/"
	// Constructors of the core models, by import path.
	coreCtors := map[string][]string{
		mod + "core":   {"New"},
		mod + "ooo":    {"New"},
		mod + "oneipc": {"New"},
	}
	mayBuildCores := func(dir string) bool { return dir == "internal/multicore" }

	var bad []string
	fset := token.NewFileSet()
	for _, src := range nonTestSources(t, fset) {
		f, dir := src.f, src.dir
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
							report(n, "%s.%s outside internal/multicore: time the region with multicore.Run or multicore.Measure", p, name)
						}
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Step" && len(n.Args) == 1 && dir != "internal/multicore" {
					report(n, "a core is stepped outside internal/multicore: the driver is the one clock")
				}
			}
			return true
		})
	}
	if len(bad) > 0 {
		t.Fatalf("the stream or driver fork is growing back:\n  %s", strings.Join(bad, "\n  "))
	}
}

// sourceFile is one parsed non-test Go source.
type sourceFile struct {
	dir string // slash-separated, relative to the repo root
	f   *ast.File
}

// nonTestSources parses every non-test Go source outside benchmark/ and
// hidden directories, failing when there is none (the tests must run from
// the repo root).
func nonTestSources(t *testing.T, fset *token.FileSet) []sourceFile {
	t.Helper()
	var out []sourceFile
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
		out = append(out, sourceFile{dir: filepath.ToSlash(filepath.Dir(path)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no source files found (test must run from the repo root)")
	}
	return out
}

// offenders walks every non-test source outside benchmark/ and returns the
// position of each node for which check reports a name, with that name.
func offenders(t *testing.T, check func(ast.Node) string) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	for _, src := range nonTestSources(t, fset) {
		ast.Inspect(src.f, func(n ast.Node) bool {
			if n != nil {
				if name := check(n); name != "" {
					bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), name))
				}
			}
			return true
		})
	}
	return bad
}

// stringLit returns the value of a string literal node, and whether n is
// one.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// TestOneModelSelector: multicore.Model is the one core-model selector and
// its String the one model name. No model registry, factory hook or second
// constructor stands beside the enum, and no result carries a second model
// label: the test keeps those names out of the non-test sources outside
// benchmark/.
func TestOneModelSelector(t *testing.T) {
	names := map[string]bool{
		"RegisterModel": true, "LookupModel": true, "CoreParams": true, "CoreFactory": true,
		"NewCore": true, "NewWithOptions": true, "ModelLabel": true,
	}
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.Ident:
			if names[n.Name] {
				return n.Name
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "simrun" && n.Sel.Name == "Models" {
				return "simrun.Models"
			}
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, id := range f.Names {
					if id.Name == "ModelName" {
						return "a ModelName field"
					}
				}
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a second core-model selector or label is back (multicore.Model is the one selector, Model.String the one name):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneMetricsSurfacePerNode: every simd node and fleet worker serves its
// own GET /metrics, and nothing scrapes, merges or re-serves them — no
// coordinator scrape loop, no merged /fleet/v1/metrics view, no
// -scrape-every knob. The test keeps the names of that machinery out of
// the non-test sources outside benchmark/.
func TestOneMetricsSurfacePerNode(t *testing.T) {
	names := map[string]bool{
		"WriteFederated": true, "Scrape": true, "InstanceLabel": true, "ScrapeMetrics": true,
		"ScrapeLoop": true, "ScrapeEvery": true, "PathMetrics": true,
	}
	bad := offenders(t, func(n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			return id.Name
		}
		if v, ok := stringLit(n); ok && (strings.Contains(v, "/fleet/v1/metrics") || strings.Contains(v, "scrape-every")) {
			return strconv.Quote(v)
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("the coordinator's metrics federation is growing back (each node's /metrics is its own surface):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestServingSurfaceStaysDeleted: the serving stack keeps only what a
// deployment sets and an operator reads. The knobs no product caller set
// (the fleet's attempt budget, job deadline and heartbeat override, simd's
// job-trace switch, Batch's per-scenario timeout and progress callback),
// the context-carried tracer API nothing called, and the metric families
// that duplicated another family or could only read 0 on a served
// endpoint must not come back to the non-test sources outside benchmark/.
func TestServingSurfaceStaysDeleted(t *testing.T) {
	names := map[string]bool{
		"MaxAttempts": true, "JobDeadline": true, "HeartbeatEvery": true, "DisableJobTraces": true,
		"ContextWith": true, "StartSpan": true, "FromContext": true,
	}
	families := []string{
		"simrun_engine_runs_total", "simrun_cache_tier_upgrades_total", "fleet_dispatches_total",
		"simrun_batch_pending", "simrun_batch_running",
	}
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.Ident:
			if names[n.Name] {
				return n.Name
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "BatchOpts" {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.Name == "Timeout" || id.Name == "Progress" {
							return "BatchOpts." + id.Name
						}
					}
				}
			}
		}
		v, ok := stringLit(n)
		if !ok {
			return ""
		}
		if v == "heartbeat" || strings.Contains(v, "job-trace") {
			return strconv.Quote(v)
		}
		for _, fam := range families {
			if strings.Contains(v, fam) {
				return strconv.Quote(v)
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a deleted serving knob, tracer helper or metric family is back:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneFabricModel: the on-chip network is one concrete type, noc.Fabric,
// whose bus, mesh and ring are route tables over one link-reservation
// loop. No Fabric interface stands in front of it, no other noc type
// reserves links of its own, and the per-topology types and the counter
// accessors they carried stay deleted from the non-test sources outside
// benchmark/.
func TestOneFabricModel(t *testing.T) {
	methods := map[string]bool{"TxCount": true, "StallCycles": true, "AvgHops": true}
	topologies := map[string]bool{"Bus": true, "Mesh": true, "Ring": true}
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.File:
			if n.Name.Name != "noc" {
				return ""
			}
			for _, d := range n.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "AccessFrom" {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); !ok || id.Name != "Fabric" {
					return "an AccessFrom method on a noc type other than Fabric"
				}
			}
		case *ast.TypeSpec:
			if _, ok := n.Type.(*ast.InterfaceType); ok && n.Name.Name == "Fabric" {
				return "a Fabric interface"
			}
		case *ast.FuncDecl:
			if n.Recv != nil && methods[n.Name.Name] {
				return "method " + n.Name.Name
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					if methods[id.Name] {
						return "interface method " + id.Name
					}
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "noc" && topologies[n.Sel.Name] {
				return "noc." + n.Sel.Name
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a second on-chip network model is back (noc.Fabric is the one type; topologies are route tables):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneCoherenceAndDRAMModel: coherence is one state machine,
// coherence.Protocol (a directory machine runs its MESI setting plus the
// home-node latency), and main memory is one model, memory.Banked (fixed
// latency is one bank at equal row latencies). Neither package declares an
// interface to put a second implementation behind, and the deleted
// directory, engine, fixed-DRAM and main-memory names stay out of the
// non-test sources outside benchmark/.
func TestOneCoherenceAndDRAMModel(t *testing.T) {
	models := map[string]bool{"coherence": true, "memory": true}
	gone := map[string]bool{
		"Directory": true, "NewDirectory": true, "Engine": true,
		"DRAM": true, "NewDRAM": true, "MainMemory": true,
	}
	pkg := "" // the package of the file being walked
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.File:
			pkg = n.Name.Name
		case *ast.TypeSpec:
			if _, ok := n.Type.(*ast.InterfaceType); ok && models[pkg] {
				return "interface " + pkg + "." + n.Name.Name
			}
			if models[pkg] && gone[n.Name.Name] {
				return "type " + pkg + "." + n.Name.Name
			}
		case *ast.FuncDecl:
			if models[pkg] && n.Recv == nil && gone[n.Name.Name] {
				return "func " + pkg + "." + n.Name.Name
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if models[pkg] && gone[id.Name] {
					return pkg + "." + id.Name
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && models[x.Name] && gone[n.Sel.Name] {
				return x.Name + "." + n.Sel.Name
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a second coherence or main-memory model is back (coherence.Protocol and memory.Banked are the one types):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneLineTable: cache.LineTable is the one open-addressed line table.
// The overlap scan's tainted store lines and the detailed core's in-flight
// store lines live in it, so no package declares a table of its own again:
// the test fails on a non-test declaration named lineSet, newLineSet,
// lineCounts or newLineCounts, and on the multiplicative hash's constant
// 0x9E3779B97F4A7C15 outside package cache, workload's splitmixGamma and
// core.lineFilter (the scan's 64-bit line filter).
func TestOneLineTable(t *testing.T) {
	gone := map[string]bool{"lineSet": true, "newLineSet": true, "lineCounts": true, "newLineCounts": true}
	allowed := map[string]bool{"workload.splitmixGamma": true, "core.lineFilter": true}
	pkg, owner := "", "" // the file's package and the declaration being walked
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.File:
			pkg = n.Name.Name
		case *ast.GenDecl:
			owner = ""
		case *ast.FuncDecl:
			owner = n.Name.Name
			if gone[owner] {
				return "func " + owner
			}
		case *ast.TypeSpec:
			if gone[n.Name.Name] {
				return "type " + n.Name.Name
			}
		case *ast.ValueSpec:
			owner = n.Names[0].Name
			for _, id := range n.Names {
				if gone[id.Name] {
					return id.Name
				}
			}
		case *ast.BasicLit:
			v, err := strconv.ParseUint(n.Value, 0, 64)
			if n.Kind == token.INT && err == nil && v == 0x9E3779B97F4A7C15 && pkg != "cache" && !allowed[pkg+"."+owner] {
				return "the line hash constant in " + pkg + "." + owner
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a second line table is back (cache.LineTable is the one table):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneSteppingPath: every core model sleeps through its idle cycles, so
// NextActive is part of sim.Core and the driver steps all of them one way.
// No optional skipping interface comes back and the driver never asks a
// core whether it can skip: the test fails on a non-test declaration named
// TimeSkipper, and on a type assertion or type switch in
// internal/multicore to an interface that declares NextActive (inline, or
// named anywhere in the non-test sources).
func TestOneSteppingPath(t *testing.T) {
	skippers := map[string]bool{} // interface types that declare NextActive
	declares := func(it *ast.InterfaceType) bool {
		for _, m := range it.Methods.List {
			for _, id := range m.Names {
				if id.Name == "NextActive" {
					return true
				}
			}
		}
		return false
	}
	offenders(t, func(n ast.Node) string {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if it, ok := ts.Type.(*ast.InterfaceType); ok && declares(it) {
				skippers[ts.Name.Name] = true
			}
		}
		return ""
	})
	// skipper reports whether a type expression names such an interface.
	skipper := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.InterfaceType:
			return declares(e)
		case *ast.Ident:
			return skippers[e.Name]
		case *ast.SelectorExpr:
			return skippers[e.Sel.Name]
		}
		return false
	}
	pkg := "" // the package of the file being walked
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.File:
			pkg = n.Name.Name
		case *ast.TypeSpec:
			if n.Name.Name == "TimeSkipper" {
				return "type TimeSkipper"
			}
		case *ast.TypeAssertExpr:
			if pkg == "multicore" && n.Type != nil && skipper(n.Type) {
				return "a type assertion to an interface with NextActive"
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range n.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					if pkg == "multicore" && skipper(e) {
						return "a type switch case on an interface with NextActive"
					}
				}
			}
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a second stepping path is back (NextActive is part of sim.Core):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestSweepPointIsASpec: a cmd/sweep point is described only by a
// simrun.Spec, so it has a wire form and runs on either executor; the sweep
// never builds a scenario from options. And a run has one description: the
// only exported simrun functions that return an Option are Observe and
// Streams, which attach what a Spec cannot carry (Spec.Options installs the
// spec itself); MustNew is gone; and no Scenario field holds a func, so no
// run can be described by a closure again.
func TestSweepPointIsASpec(t *testing.T) {
	var bad []string
	options := map[string]bool{}
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
					if !ok || dir != "cmd/sweep" || sel.Sel.Name != "New" {
						return true
					}
					if x, _ := sel.X.(*ast.Ident); x != nil && x.Name == "simrun" {
						bad = append(bad, fmt.Sprintf("%s: simrun.New in cmd/sweep: describe the point as a simrun.Spec", fset.Position(n.Pos())))
					}
				case *ast.FuncDecl:
					if dir != "internal/simrun" || n.Recv != nil || !n.Name.IsExported() {
						return true
					}
					if n.Name.Name == "MustNew" {
						bad = append(bad, fmt.Sprintf("%s: simrun.MustNew is back: build with Spec.Scenario and handle the error", fset.Position(n.Pos())))
					}
					if res := n.Type.Results; res != nil && len(res.List) == 1 {
						if id, _ := res.List[0].Type.(*ast.Ident); id != nil && id.Name == "Option" {
							options[n.Name.Name] = true
						}
					}
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if dir != "internal/simrun" || n.Name.Name != "Scenario" || !ok {
						return true
					}
					for _, f := range st.Fields.List {
						if containsFunc(f.Type) {
							bad = append(bad, fmt.Sprintf("%s: Scenario field holds a func: a run is described by its Spec", fset.Position(f.Pos())))
						}
					}
				}
				return true
			})
		}
	}
	if len(options) != 2 || !options["Observe"] || !options["Streams"] {
		bad = append(bad, fmt.Sprintf("exported simrun functions returning Option are %v, want only Observe and Streams: a knob is a Spec field", options))
	}
	if len(bad) > 0 {
		t.Fatalf("a run has a second description again:\n  %s", strings.Join(bad, "\n  "))
	}
}

// containsFunc reports whether a type expression spells a func type,
// directly or as a slice, array, map or pointer element.
func containsFunc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.FuncType:
		return true
	case *ast.ArrayType:
		return containsFunc(e.Elt)
	case *ast.MapType:
		return containsFunc(e.Key) || containsFunc(e.Value)
	case *ast.StarExpr:
		return containsFunc(e.X)
	}
	return false
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

// TestOneEngineSelector: simrun's engine table is the one engine selector.
// The closed set full / statistical needs no registry, so internal/engine
// exports the estimator as plain functions, registers nothing and does not
// import simrun, and no program or test imports it for its side effects.
// The test fails on a declaration named RegisterEngine or engineRegistry,
// on an init func in internal/engine, on internal/engine importing simrun,
// and on a blank import of internal/engine, test files included, anywhere
// outside benchmark/.
func TestOneEngineSelector(t *testing.T) {
	const engine, simrun = "repro/internal/engine", "repro/internal/simrun"
	var bad []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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
		inEngine := filepath.ToSlash(filepath.Dir(path)) == "internal/engine"
		test := strings.HasSuffix(path, "_test.go")
		report := func(n ast.Node, what string) {
			bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case p == engine && imp.Name != nil && imp.Name.Name == "_":
				report(imp, "a blank import of "+engine)
			case p == simrun && inEngine && !test:
				report(imp, "internal/engine imports "+simrun)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inEngine && n.Recv == nil && n.Name.Name == "init" {
					report(n, "an init func in internal/engine")
				}
				names = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				names = n.Names
			}
			for _, id := range names {
				if id.Name == "RegisterEngine" || id.Name == "engineRegistry" {
					report(id, "a declaration named "+id.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("an engine registry is back (simrun's engine table is the one engine selector):\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestTimingSideKeepsWhatItReads: the timing side keeps only what something
// reads or sets. An instruction carries no sequence number, since no timing
// model reads one and a stream position is where an instruction sits (the
// trace writer and the stream goldens count it), so isa.Inst stays at 32
// bytes. The interval core's wrong-path fetch, a switch no figure and no
// product caller set, stays deleted. The test fails on a Seq field of a
// struct named Inst and on a WrongPathFetch, WrongPathLines or
// wrongPathFetch identifier or a "wrong-path" name in the non-test sources
// outside benchmark/.
func TestTimingSideKeepsWhatItReads(t *testing.T) {
	names := map[string]bool{"WrongPathFetch": true, "WrongPathLines": true, "wrongPathFetch": true}
	bad := offenders(t, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.Ident:
			if names[n.Name] {
				return n.Name
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Inst" {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.Name == "Seq" {
							return "Inst.Seq"
						}
					}
				}
			}
		}
		if v, ok := stringLit(n); ok && v == "wrong-path" {
			return strconv.Quote(v)
		}
		return ""
	})
	if len(bad) > 0 {
		t.Fatalf("a field or switch no timing model reads is back:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestOneMachineDescription: internal/config owns every machine name and
// default. Its table (config.Names) is the one list of the names a name
// field accepts, and config.Machine.Resolve writes every zero that selects
// a default, so the code that reads a machine holds neither. The test
// fails, in the non-test sources outside benchmark/ and internal/config,
// on a list literal or a ", "-joined string holding every name of a name
// field; on a field Resolve defaults read through cmp.Or, max or min; and
// on a clamp (`if v <= 0 { v = 2 }` and its spellings) of such a field, of
// a variable set from one or, in internal/memhier, of a parameter. The one
// knob rule, simrun's prefetch knob on a degree-0 machine meaning degree
// 2, is allowed in ResolvedMachine.
func TestOneMachineDescription(t *testing.T) {
	defaulted := map[string]bool{
		"MaxOutstandingMisses": true, "DirectoryLatency": true, "NoCHopLatency": true, "NoCOccupancy": true,
		"DRAMBanks": true, "DRAMRowBytes": true, "DRAMRowHit": true, "DRAMRowMiss": true, "PrefetchDegree": true,
	}
	var tables [][]string
	for _, field := range []string{"Branch.Kind", "Mem.Coherence", "Mem.Interconnect", "Mem.DRAMKind", "Mem.Prefetch"} {
		tables = append(tables, config.Names(field))
	}
	holdsTable := func(has func(name string) bool) bool {
		for _, names := range tables {
			if !slices.ContainsFunc(names, func(n string) bool { return !has(n) }) {
				return true
			}
		}
		return false
	}
	// field returns the name of a defaulted field e selects, or "".
	field := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok && defaulted[sel.Sel.Name] {
			return sel.Sel.Name
		}
		return ""
	}
	var bad []string
	fset := token.NewFileSet()
	for _, src := range nonTestSources(t, fset) {
		if src.dir == "internal/config" {
			continue
		}
		for _, decl := range src.f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			// clampable maps a variable to what a clamp of it defaults: the
			// field it was set from, or a memhier parameter.
			clampable := map[string]string{}
			if fn != nil && src.dir == "internal/memhier" {
				for _, p := range fn.Type.Params.List {
					for _, id := range p.Names {
						clampable[id.Name] = "parameter " + id.Name
					}
				}
			}
			target := func(e ast.Expr) string {
				if id, ok := e.(*ast.Ident); ok {
					return clampable[id.Name]
				}
				return field(e)
			}
			report := func(n ast.Node, what string) {
				bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					var elts []string
					for _, e := range n.Elts {
						if v, ok := stringLit(e); ok {
							elts = append(elts, v)
						}
					}
					if holdsTable(func(name string) bool { return slices.Contains(elts, name) }) {
						report(n, "a list of machine names")
					}
				case *ast.BasicLit:
					if v, ok := stringLit(n); ok {
						for _, names := range tables {
							if strings.Contains(v, strings.Join(names, ", ")) {
								report(n, "a string listing machine names")
							}
						}
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if f := field(rhs); f != "" && i < len(n.Lhs) {
							if id, ok := n.Lhs[i].(*ast.Ident); ok {
								clampable[id.Name] = f
							}
						}
					}
				case *ast.CallExpr:
					name := ""
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						name = fun.Name
					case *ast.SelectorExpr:
						if x, ok := fun.X.(*ast.Ident); ok {
							name = x.Name + "." + fun.Sel.Name
						}
					}
					if name == "cmp.Or" || name == "max" || name == "min" {
						for _, arg := range n.Args {
							if f := field(arg); f != "" {
								report(n, "a default for "+f+" ("+name+")")
							}
						}
					}
				case *ast.IfStmt:
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						cmp, ok := c.(*ast.BinaryExpr)
						if !ok || (cmp.Op != token.EQL && cmp.Op != token.LEQ && cmp.Op != token.LSS) {
							return true
						}
						lit, ok := cmp.Y.(*ast.BasicLit)
						what := target(cmp.X)
						if !ok || (lit.Value != "0" && lit.Value != "1") || what == "" {
							return true
						}
						for _, st := range n.Body.List {
							as, ok := st.(*ast.AssignStmt)
							if !ok || len(as.Lhs) != 1 || types.ExprString(as.Lhs[0]) != types.ExprString(cmp.X) {
								continue
							}
							if _, isLit := as.Rhs[0].(*ast.BasicLit); !isLit {
								continue
							}
							if src.dir == "internal/simrun" && fn != nil && fn.Name.Name == "ResolvedMachine" && what == "PrefetchDegree" {
								continue
							}
							report(n, "a default for "+what)
						}
						return true
					})
				}
				return true
			})
		}
	}
	if len(bad) > 0 {
		t.Fatalf("a machine name list or default lives outside internal/config (config.Names and config.Machine.Resolve are the one description):\n  %s", strings.Join(bad, "\n  "))
	}
}
