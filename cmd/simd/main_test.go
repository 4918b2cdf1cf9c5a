package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestEarlyExits: flag combinations simd cannot serve exit 2 with a
// message naming the problem, before any listener opens.
func TestEarlyExits(t *testing.T) {
	for _, c := range []struct {
		args, want string
	}{
		{"-coordinator -worker http://127.0.0.1:1", "-coordinator and -worker are mutually exclusive"},
		{"-coordinator -tiered", "-tiered is a single-node serving feature"},
		{"-chaos kill-run=1", "-chaos only applies to -worker mode"},
		{"-scrape-every 1s", "flag provided but not defined: -scrape-every"},
		{"-heartbeat 1s", "flag provided but not defined: -heartbeat"},
		{"-job-trace=false", "flag provided but not defined: -job-trace"},
	} {
		t.Run(c.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), strings.Fields(c.args), &stdout, &stderr)
			if code != 2 {
				t.Errorf("simd %s: exit %d, want 2", c.args, code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("simd %s: stderr lacks %q:\n%s", c.args, c.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("simd %s: wrote to stdout on an early exit:\n%s", c.args, stdout.String())
			}
		})
	}
}

// TestDrainOnSignal: once the shutdown context is done, a single node
// and a coordinator both drain, say goodbye and exit 0.
func TestDrainOnSignal(t *testing.T) {
	for _, args := range []string{"", "-coordinator"} {
		t.Run("mode="+args, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var stdout, stderr bytes.Buffer
			code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, strings.Fields(args)...), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("simd %s: exit %d, want 0\n%s", args, code, stderr.String())
			}
			if out := stdout.String(); !strings.HasSuffix(out, "simd: bye\n") {
				t.Errorf("simd %s: stdout does not end with the goodbye:\n%s", args, out)
			}
		})
	}
}
