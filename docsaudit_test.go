// Documentation audit: every internal package must carry a package-level
// doc comment (the docs/ tree points into them, and `go doc` is the
// canonical reference for each layer), and every package a documented
// command names must exist. The tests fail naming the undocumented
// packages and the stale commands, so a new package cannot land without
// its one-paragraph contract and a deleted one cannot leave commands
// behind that no longer run.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

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

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".claude/skills/verify/SKILL.md")
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
