// Documentation audit: every internal package must carry a package-level
// doc comment (the docs/ tree points into them, and `go doc` is the
// canonical reference for each layer), and every package, engine, figure
// and HTTP endpoint a document names must exist. The tests fail naming the
// undocumented packages and the stale names, so a new package cannot land
// without its one-paragraph contract and a deleted package, engine, figure
// or endpoint cannot leave commands behind that no longer run.
package main

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// auditedDocs lists the documents the audits read: README.md, docs/*.md
// and the verify skill.
func auditedDocs(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(docs, "README.md", ".claude/skills/verify/SKILL.md")
}

// TestDocCommandsNamePackages checks every package path a `go run`,
// `go build`, `go test` or `go doc` command quotes in README.md, docs/*.md
// and the verify skill against `go list ./...`: ./X and ./X/... patterns
// for the first three, repro/X import paths (optionally .Symbol) for
// go doc.
func TestDocCommandsNamePackages(t *testing.T) {
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	pkgs := strings.Fields(string(out))
	names := func(path string) bool {
		if prefix, ok := strings.CutSuffix(path, "/..."); ok {
			return slices.ContainsFunc(pkgs, func(p string) bool { return p == prefix || strings.HasPrefix(p, prefix+"/") })
		}
		return slices.Contains(pkgs, path)
	}

	docs := auditedDocs(t)
	command := regexp.MustCompile("\\bgo (run|build|test|doc)\\b([^`\\n;|&#)]*)")
	var bad []string
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range command.FindAllStringSubmatch(line, -1) {
				for _, arg := range strings.Fields(m[2]) {
					var path string
					switch {
					case m[1] == "doc" && strings.HasPrefix(arg, "repro"):
						path = arg
						slash := strings.LastIndex(path, "/")
						if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
							path = path[:slash+1+dot] // drop the .Symbol
						}
					case m[1] != "doc" && (arg == "." || strings.HasPrefix(arg, "./")):
						path = "repro" + strings.TrimSuffix(arg[1:], "/")
					default:
						continue
					}
					if !names(path) {
						bad = append(bad, fmt.Sprintf("%s:%d: go %s %s", doc, i+1, m[1], arg))
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("documented commands name packages `go list ./...` does not know:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestDocFlagsAreDefined checks every -flag a document quotes on a
// `go run ./cmd/X` line, or on a line running a built X binary
// (/tmp/bin/X), against the flags cmd/X's non-test source defines, so a
// retired flag cannot linger in the prose. The arguments end where the
// command does: at a backtick, ;, |, &, #, ) or >.
func TestDocFlagsAreDefined(t *testing.T) {
	command := regexp.MustCompile("(?:\\bgo run \\./cmd/|/bin/)(\\w+)([^`\\n;|&#)>]*)")
	flagArg := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	defined := map[string]map[string]bool{}
	var bad []string
	for _, doc := range auditedDocs(t) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range command.FindAllStringSubmatch(line, -1) {
				cmd := m[1]
				if defined[cmd] == nil {
					defined[cmd] = cmdFlags(t, cmd)
				}
				for _, arg := range strings.Fields(m[2]) {
					if f := flagArg.FindStringSubmatch(arg); f != nil && !defined[cmd][f[1]] {
						bad = append(bad, fmt.Sprintf("%s:%d: %s -%s", doc, i+1, cmd, f[1]))
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("documents quote flags their command does not define:\n  %s", strings.Join(bad, "\n  "))
	}
}

// cmdFlags returns the flags cmd/<name>'s non-test source defines: the name
// argument of every flag-defining call (Bool, String, IntVar, Func, ...)
// and of every call to a closure that passes its parameter on as one (like
// intervalsim's knob), plus -h and -help, which the flag package answers
// itself.
func cmdFlags(t *testing.T, name string) map[string]bool {
	t.Helper()
	dir := filepath.Join("cmd", name)
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil || len(pkgs) == 0 {
		t.Fatalf("%s: no command (%v)", dir, err)
	}
	definer := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)?Var$|^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc)$`)
	// nameArg returns the flag-name argument of a call to a flag definer;
	// the *Var forms take a pointer or a Value first.
	nameArg := func(call *ast.CallExpr) ast.Expr {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !definer.MatchString(sel.Sel.Name) {
			return nil
		}
		at := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			at = 1
		}
		if at < len(call.Args) {
			return call.Args[at]
		}
		return nil
	}
	// helpers maps a closure that hands its parameter i on as a flag name
	// (intervalsim's knob) to i.
	helpers := map[string]int{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, _ := as.Lhs[0].(*ast.Ident)
			lit, _ := as.Rhs[0].(*ast.FuncLit)
			if id == nil || lit == nil {
				return true
			}
			params := map[string]int{}
			for _, f := range lit.Type.Params.List {
				for _, p := range f.Names {
					params[p.Name] = len(params)
				}
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if arg, ok := nameArg(call).(*ast.Ident); ok {
						if i, ok := params[arg.Name]; ok {
							helpers[id.Name] = i
						}
					}
				}
				return true
			})
			return true
		})
	}
	flags := map[string]bool{"h": true, "help": true}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg := nameArg(call)
			if id, ok := call.Fun.(*ast.Ident); ok {
				if i, ok := helpers[id.Name]; ok && i < len(call.Args) {
					arg = call.Args[i]
				}
			}
			if v, ok := stringLit(arg); ok {
				flags[v] = true
			}
			return true
		})
	}
	return flags
}

// TestDocNamesAreRegistered checks every engine a document quotes — in
// "engine":"X" form or as a -engine value — against simrun.Engines(), and
// every -fig id (a|b lists included) against cmd/experiments' figIDs, so a
// retired engine or study cannot linger in the prose.
func TestDocNamesAreRegistered(t *testing.T) {
	figs := strings.Split(experimentsFigIDs(t), ",")
	engine := regexp.MustCompile("\"engine\"\\s*:\\s*\"([^\"]*)\"|(?:^|[\\s`])-engine[ =]([\\w-]+)")
	fig := regexp.MustCompile("(?:^|[\\s`])-fig[ =]([\\w|,-]+)")
	var bad []string
	for _, doc := range auditedDocs(t) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range engine.FindAllStringSubmatch(line, -1) {
				if name := m[1] + m[2]; !slices.Contains(simrun.Engines(), name) {
					bad = append(bad, fmt.Sprintf("%s:%d: engine %q", doc, i+1, name))
				}
			}
			for _, m := range fig.FindAllStringSubmatch(line, -1) {
				for _, id := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '|' || r == ',' }) {
					if !slices.Contains(figs, id) {
						bad = append(bad, fmt.Sprintf("%s:%d: -fig %s", doc, i+1, id))
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("documents name engines or figures that are not registered (engines: %v; figures: %v):\n  %s",
			simrun.Engines(), figs, strings.Join(bad, "\n  "))
	}
}

// TestDocEndpointsAreMounted checks every /v1/… and /fleet/v1/… path a
// document names against the routes the non-test code mounts with
// HandleFunc. A segment written {id} or holding a <placeholder> matches any
// segment, as a {wildcard} route segment does.
func TestDocEndpointsAreMounted(t *testing.T) {
	routes := mountedRoutes(t)
	wild := func(seg string) bool { return strings.ContainsAny(seg, "{<") }
	mounted := func(path string) bool {
		segs := strings.Split(path, "/")
		return slices.ContainsFunc(routes, func(route string) bool {
			rsegs := strings.Split(route, "/")
			if len(rsegs) != len(segs) {
				return false
			}
			for i := range segs {
				if segs[i] != rsegs[i] && !wild(segs[i]) && !wild(rsegs[i]) {
					return false
				}
			}
			return true
		})
	}
	endpoint := regexp.MustCompile(`(?:/fleet)?/v1/[\w{}<>/.-]*`)
	var bad []string
	for _, doc := range auditedDocs(t) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, path := range endpoint.FindAllString(line, -1) {
				if path = strings.TrimRight(path, "./"); !mounted(path) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s", doc, i+1, path))
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("documents name endpoints no HandleFunc mounts (routes: %v):\n  %s", routes, strings.Join(bad, "\n  "))
	}
}

// mdCitation matches a cited Markdown file: a path of name characters
// ending in .md.
var mdCitation = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// resolves reports whether a cited .md path names a file, taken from the
// repo root or from the citing file's directory.
func resolves(citedFrom, path string) bool {
	for _, p := range []string{path, filepath.Join(filepath.Dir(citedFrom), path)} {
		if info, err := os.Stat(p); err == nil && !info.IsDir() {
			return true
		}
	}
	return false
}

// TestDocCitationsResolve checks every .md file a non-test Go comment or
// string outside benchmark/, README.md, docs/*.md or the verify skill
// cites against the files in the repo, so a comment cannot send a reader to
// a document that does not exist.
func TestDocCitationsResolve(t *testing.T) {
	fset := token.NewFileSet()
	files := auditedDocs(t)
	for _, src := range nonTestSources(t, fset) {
		files = append(files, fset.Position(src.f.Pos()).Filename)
	}
	var bad []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, path := range mdCitation.FindAllString(line, -1) {
				if !resolves(file, path) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s", file, i+1, path))
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Fatalf("documents or sources cite .md files that do not exist:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestDocMetricsAreServed renders GET /metrics from a simd.Server that has
// run one job, a fleet.Coordinator and a fleet.Worker, each on its own
// registry, and checks it against docs/observability.md and docs/fleet.md:
// every served family is named in one of them, and every simd_, simrun_ or
// fleet_ family they name is served (a histogram's _bucket, _sum and _count
// fold into the family).
func TestDocMetricsAreServed(t *testing.T) {
	newCache := func() *simrun.Cache {
		c, err := simrun.NewCache(simrun.CacheOpts{Encode: simd.Encode, DecodeTier: simd.DecodeTier})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	scrape := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /metrics = %d", rec.Code)
		}
		return rec.Body.String()
	}

	server, err := simd.New(simd.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := simrun.ParseSpec(strings.NewReader(`{"bench":"gcc","insts":2000,"warmup":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.SubmitSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := server.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	text := scrape(server.Handler())

	coordReg := obs.NewRegistry()
	if _, err := fleet.NewCoordinator(fleet.Config{Cache: newCache(), Registry: coordReg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coordReg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text += buf.String()

	worker, err := fleet.NewWorker(fleet.WorkerConfig{ID: "w1", Cache: newCache(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	text += scrape(worker.Handler())

	served := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			served[strings.Fields(rest)[0]] = true
		}
	}
	family := regexp.MustCompile(`\b(?:simd|simrun|fleet)_\w*[a-z0-9]\b`)
	named := map[string]bool{}
	var bad []string
	for _, doc := range []string{"docs/observability.md", "docs/fleet.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, name := range family.FindAllString(line, -1) {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if base, ok := strings.CutSuffix(name, suffix); ok && served[base] {
						name = base
					}
				}
				named[name] = true
				if !served[name] {
					bad = append(bad, fmt.Sprintf("%s:%d: %s is not served", doc, i+1, name))
				}
			}
		}
	}
	for name := range served {
		if !named[name] {
			bad = append(bad, fmt.Sprintf("%s is served but neither docs/observability.md nor docs/fleet.md names it", name))
		}
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		t.Fatalf("docs and /metrics disagree:\n  %s", strings.Join(bad, "\n  "))
	}
}

// mountedRoutes returns the path of every HandleFunc pattern in the
// non-test sources outside benchmark/: a string literal, or a sum of
// literals and string constants, with its method prefix dropped.
func mountedRoutes(t *testing.T) []string {
	t.Helper()
	consts := map[string]string{}
	var patterns []ast.Expr
	for _, src := range nonTestSources(t, token.NewFileSet()) {
		ast.Inspect(src.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if lit, ok := n.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							consts[name.Name], _ = strconv.Unquote(lit.Value)
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" && len(n.Args) == 2 {
					patterns = append(patterns, n.Args[0])
				}
			}
			return true
		})
	}
	var eval func(e ast.Expr) string
	eval = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.BasicLit:
			s, _ := strconv.Unquote(e.Value)
			return s
		case *ast.Ident:
			return consts[e.Name]
		case *ast.BinaryExpr:
			return eval(e.X) + eval(e.Y)
		}
		return ""
	}
	var routes []string
	for _, p := range patterns {
		pattern := eval(p)
		if _, path, ok := strings.Cut(pattern, " "); ok {
			pattern = path
		}
		routes = append(routes, pattern)
	}
	return routes
}

// experimentsFigIDs reads the figIDs constant of cmd/experiments, a main
// package no test can import.
func experimentsFigIDs(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/experiments/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) == 1 && vs.Names[0].Name == "figIDs" && len(vs.Values) == 1 {
				if lit, ok := vs.Values[0].(*ast.BasicLit); ok {
					if ids, err := strconv.Unquote(lit.Value); err == nil {
						return ids
					}
				}
			}
		}
	}
	t.Fatal("cmd/experiments/main.go: no string constant figIDs")
	return ""
}

// TestInternalPackagesDocumented parses the package clause of every
// internal/* package and fails when one has no package doc comment on
// any of its files.
func TestInternalPackagesDocumented(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found (test must run from the repo root)")
	}
	var missing []string
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		sawSource := false
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			sawSource = true
			f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if sawSource && !documented {
			missing = append(missing, dir)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("internal packages without a package-level doc comment:\n  %s",
			strings.Join(missing, "\n  "))
	}
}
