package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/simd"
	"repro/internal/simrun"
)

// sizing keeps every golden run small: two profiles, 13k instructions a
// point.
var sizing = []string{"-profiles", "gcc,mcf", "-n", "3000", "-warmup", "10000"}

// sweep runs the command in-process and returns its exit code, stdout and
// stderr.
func sweep(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, append(append([]string{}, sizing...), args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// ok runs a sweep that must succeed and returns its stdout.
func ok(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := sweep(context.Background(), args...)
	if code != 0 {
		t.Fatalf("sweep %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func golden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// goldens are the tables the sweep printed before every mode became specs
// -> executor -> printer; each file is that binary's stdout for the args.
var goldens = []struct {
	name string
	args []string
}{
	{"core", []string{"-sweep", "core"}},
	{"l2", []string{"-sweep", "l2"}},
	{"fabric", []string{"-sweep", "fabric"}},
	{"dram", []string{"-sweep", "dram"}},
	{"core-detailed", []string{"-sweep", "core", "-detailed"}},
	{"l2-adaptive", []string{"-sweep", "l2", "-adaptive", "-top", "0.5"}},
	{"batch", []string{"-f", "testdata/batch.json"}},
	{"batch-adaptive", []string{"-f", "testdata/batch.json", "-adaptive"}},
}

// TestGoldens: every mode prints the same bytes at -j 1 and -j 4.
func TestGoldens(t *testing.T) {
	for _, g := range goldens {
		want := golden(t, g.name)
		for _, j := range []string{"1", "4"} {
			t.Run(g.name+"/j"+j, func(t *testing.T) {
				if got := ok(t, append(g.args, "-j", j)...); got != want {
					t.Errorf("stdout differs from testdata/%s.golden:\n%s\nwant:\n%s", g.name, got, want)
				}
			})
		}
	}
}

// simdURL serves a fresh in-process simd and returns its base URL.
func simdURL(t *testing.T) string {
	t.Helper()
	srv, err := simd.New(simd.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	return ts.URL
}

// TestRemoteMatchesLocal: the remote executor prints the local run's table
// for built-in grids and -adaptive, and the fleet-batch golden for -f. Each
// case gets a fresh server: one whose cache already holds full answers may
// answer an estimate request with them.
func TestRemoteMatchesLocal(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want func(url string) string
	}{
		{"core", []string{"-sweep", "core"}, func(string) string { return golden(t, "core") }},
		{"dram", []string{"-sweep", "dram"}, func(string) string { return golden(t, "dram") }},
		{"batch", []string{"-f", "testdata/batch.json"}, func(url string) string {
			return strings.ReplaceAll(golden(t, "batch-fleet"), "$FLEET", url)
		}},
		{"batch-adaptive", []string{"-f", "testdata/batch.json", "-adaptive"}, func(string) string {
			return golden(t, "batch-adaptive")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			url := simdURL(t)
			want := c.want(url)
			// The second run finds every point already answered: it joins
			// the first run's jobs, and must still print the same table.
			for _, j := range []string{"1", "4"} {
				if got := ok(t, append(c.args, "-j", j, "-fleet", url)...); got != want {
					t.Errorf("-j %s -fleet:\n%s\nwant:\n%s", j, got, want)
				}
			}
		})
	}
}

// TestRemoteProgress: under -progress the remote executor heartbeats the
// jobs itself, and its last line counts every one done and who answered.
func TestRemoteProgress(t *testing.T) {
	code, _, errOut := sweep(context.Background(), "-sweep", "dram", "-j", "2", "-progress", "-fleet", simdURL(t))
	lines := strings.Split(strings.TrimSpace(errOut), "\n")
	if want := "sweep: fleet 6/6 jobs done, 0 in flight, 0 retried local:6"; code != 0 || lines[len(lines)-1] != want {
		t.Fatalf("exit %d, stderr:\n%s\nwant it to end with %q", code, errOut, want)
	}
}

// TestBuiltinFingerprints pins the fingerprint of every built-in point:
// the values the sweep's points had when machine tweaks were Go closures
// applied by simrun.Configure, which a tweaked Spec.Machine must keep.
func TestBuiltinFingerprints(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		sweep    string
		detailed bool
	}{{"core", false}, {"l2", false}, {"fabric", false}, {"dram", false}, {"core", true}} {
		seed := int64(42)
		s := &sweeper{detailed: c.detailed, base: simrun.Spec{Insts: 3000, Warmup: 10000, Seed: &seed}}
		tab, err := s.builtin(c.sweep, []string{"gcc", "mcf"})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tab.specs {
			sc, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			fp, err := sc.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s detailed=%v %q %s %s\n", c.sweep, c.detailed, sp.Label, cmp.Or(sp.Model, "interval"), fp)
		}
	}
	if want := golden(t, "fingerprints"); got.String() != want {
		t.Errorf("built-in fingerprints moved:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestExitCodes: usage errors exit 2 naming what is wrong, and an
// interrupted sweep exits 130, in-process or remote.
func TestExitCodes(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"scenarios":[{"bench":"gcc","predcitor":"tage"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A machine whose predictor no simulator knows.
	m := config.Default(1)
	m.Branch.Kind = "bogus"
	raw, err := json.Marshal(simrun.SpecFile{Scenarios: []simrun.Spec{{Bench: "gcc", Machine: &m}}})
	if err != nil {
		t.Fatal(err)
	}
	unknownName := filepath.Join(t.TempDir(), "unknown-name.json")
	if err := os.WriteFile(unknownName, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A work scale that leaves a PARSEC run no budget, or one past 2^63.
	unbounded := map[string]string{}
	for name, scale := range map[string]string{"underflow": "1e-300", "overflow": "1e300"} {
		unbounded[name] = filepath.Join(t.TempDir(), name+".json")
		spec := `{"scenarios":[{"bench":"blackscholes","cores":2,"work_scale":` + scale + `}]}`
		if err := os.WriteFile(unbounded[name], []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx     context.Context
		args    []string
		code    int
		message string
	}{
		{context.Background(), []string{"-adaptive", "-top", "0"}, 2, "-top 0 out of range"},
		{context.Background(), []string{"-adaptive", "-top", "1.5"}, 2, "-top 1.5 out of range"},
		{context.Background(), []string{"-sweep", "cache"}, 2, `unknown sweep "cache"`},
		{context.Background(), []string{"-sweep", "core", "-profiles", "gcc,bogus"}, 2, `unknown benchmark "bogus"`},
		{context.Background(), []string{"-f", bad}, 2, "predcitor"},
		{context.Background(), []string{"-f", unknownName}, 2, `Branch.Kind = "bogus"`},
		{context.Background(), []string{"-f", filepath.Join(t.TempDir(), "missing.json")}, 2, "missing.json"},
		{context.Background(), []string{"-f", unbounded["underflow"]}, 2, "work scale 1e-300"},
		{context.Background(), []string{"-f", unbounded["overflow"]}, 2, "work scale 1e+300"},
		{context.Background(), []string{"-sweep", "core", "-detailed", "-adaptive"}, 2, "-detailed"},
		{context.Background(), []string{"-f", "testdata/batch.json", "-detailed"}, 2, "-detailed"},
		{context.Background(), []string{"-sweep", "fabric", "-detailed"}, 2, "-detailed"},
		{cancelled, []string{"-sweep", "dram"}, 130, "interrupted"},
		{cancelled, []string{"-sweep", "dram", "-adaptive"}, 130, "interrupted"},
		{cancelled, []string{"-sweep", "dram", "-fleet", simdURL(t)}, 130, "interrupted"},
	} {
		code, _, errOut := sweep(c.ctx, c.args...)
		if code != c.code || !strings.Contains(errOut, c.message) {
			t.Errorf("sweep %s: exit %d, stderr %q; want exit %d naming %q", strings.Join(c.args, " "), code, errOut, c.code, c.message)
		}
	}
}
