package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// hostTime is the only part of the output that is not simulated: the wall
// clock and MIPS of the text and report formats.
var hostTime = regexp.MustCompile(`wall=\S+ \([0-9.]+ MIPS\)`)

// TestGoldens: each file in testdata is what the command printed, to stdout
// on success and to stderr on a usage error, before it built its run from a
// simrun.Spec; host time is masked as wall=<host>.
func TestGoldens(t *testing.T) {
	const small = "-insts 5000 -warmup 10000"
	for _, c := range []struct {
		name, args string
		code       int
	}{
		{"gcc-json", "-bench gcc -json " + small, 0},
		{"copies2-json", "-bench mcf -copies 2 -json " + small, 0},
		{"parsec-json", "-bench blackscholes -cores 2 -warmup 10000 -json", 0},
		{"cpistack", "-bench gcc -cpistack " + small, 0},
		{"report-mesh-banked-stride", "-bench mcf -report -fabric mesh -dram banked -prefetch stride " + small, 0},
		{"text", "-bench gcc " + small, 0},
		{"list", "-list", 0},
		{"unknown-model", "-bench gcc -model gpt", 2},
		{"unknown-fabric", "-bench gcc -fabric torus", 2},
		{"unknown-bench", "-bench notreal", 2},
		{"cpistack-detailed", "-bench gcc -cpistack -model detailed", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), strings.Fields(c.args), &stdout, &stderr)
			got := stdout.String()
			if c.code != 0 {
				got = stderr.String()
			}
			if code != c.code {
				t.Errorf("intervalsim %s: exit %d, want %d\n%s", c.args, code, c.code, stderr.String())
			}
			if got = hostTime.ReplaceAllString(got, "wall=<host>"); got != string(want) {
				t.Errorf("intervalsim %s differs from testdata/%s.golden:\n%s\nwant:\n%s", c.args, c.name, got, want)
			}
		})
	}
}
