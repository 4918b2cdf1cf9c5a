package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/multicore"
)

// tracegen runs the command and returns its exit status and output.
func tracegen(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRecordAndReplay: a recorded trace replays under every model the
// driver builds, and each replay names its model.
func TestRecordAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trace")
	code, out, errOut := tracegen("-bench", "gcc", "-n", "20000", "-o", path)
	if code != 0 || !strings.Contains(out, "recorded 20000 instructions of gcc") {
		t.Fatalf("record: exit %d\n%s%s", code, out, errOut)
	}
	for _, model := range multicore.Models() {
		code, out, errOut := tracegen("-replay", path, "-model", model)
		if code != 0 {
			t.Fatalf("replay under %s: exit %d\n%s", model, code, errOut)
		}
		if !strings.Contains(out, "model="+model+" instructions=20000 ") {
			t.Errorf("replay under %s: output does not name the model:\n%s", model, out)
		}
	}
}

// TestExitCodes: an unknown model is a usage error, a missing trace file a
// run-time one.
func TestExitCodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trace")
	if code, _, errOut := tracegen("-bench", "gcc", "-n", "1000", "-o", path); code != 0 {
		t.Fatalf("record: exit %d\n%s", code, errOut)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-replay", path, "-model", "gpt"}, 2, `unknown model "gpt"`},
		{[]string{"-replay", filepath.Join(t.TempDir(), "missing.trace")}, 1, "no such file"},
		{[]string{"-bench", "notreal", "-o", path}, 2, `unknown benchmark "notreal"`},
		{nil, 2, "Usage of tracegen"},
	} {
		code, _, errOut := tracegen(c.args...)
		if code != c.code || !strings.Contains(errOut, c.want) {
			t.Errorf("tracegen %q: exit %d, want %d naming %q:\n%s", c.args, code, c.code, c.want, errOut)
		}
	}
}

// TestModelHelpListsModels: -model's help is the driver's model list.
func TestModelHelpListsModels(t *testing.T) {
	code, _, errOut := tracegen("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	want := "timing model for replay: " + strings.Join(multicore.Models(), ", ")
	if !strings.Contains(errOut, want) {
		t.Errorf("-h does not carry %q:\n%s", want, errOut)
	}
}
