package report

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/simrun"
)

func runOnce(t *testing.T, sp simrun.Spec) []byte {
	t.Helper()
	sp.Bench, sp.Insts = "gcc", 2000
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := JSON(res.Result)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// Host wall-clock is excluded from the encoding, so two runs of the same
// scenario — which always differ in Wall — encode byte-identically. This
// is what lets the result cache serve bit-identical bodies.
func TestJSONDeterministic(t *testing.T) {
	a := runOnce(t, simrun.Spec{Report: true})
	b := runOnce(t, simrun.Spec{Report: true})
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario encoded differently:\n%s\n%s", a, b)
	}
}

func TestJSONShape(t *testing.T) {
	var full Summary
	if err := json.Unmarshal(runOnce(t, simrun.Spec{Report: true, Cores: 2}), &full); err != nil {
		t.Fatal(err)
	}
	if full.Model != "interval" {
		t.Errorf("model = %q, want interval", full.Model)
	}
	if len(full.Cores) != 2 {
		t.Errorf("got %d cores, want 2", len(full.Cores))
	}
	if full.Cycles <= 0 || full.Instructions == 0 {
		t.Errorf("implausible totals: cycles=%d instructions=%d", full.Cycles, full.Instructions)
	}
	for i, c := range full.Cores {
		if c.Core != i || c.IPC <= 0 {
			t.Errorf("core %d: %+v", i, c)
		}
	}
	if full.Mem == nil {
		t.Fatal("Report run has no mem summary")
	}
	if full.Mem.L2 == nil {
		t.Error("baseline machine has an L2; summary omits it")
	}
	if len(full.Mem.Cores) != 2 {
		t.Errorf("mem summary covers %d cores, want 2", len(full.Mem.Cores))
	}

	// Without Report there is no hierarchy to report.
	var bare Summary
	if err := json.Unmarshal(runOnce(t, simrun.Spec{}), &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Mem != nil {
		t.Error("plain run unexpectedly has a mem summary")
	}
}

// Field names are stable API: tooling parses them.
func TestJSONStableFieldNames(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(runOnce(t, simrun.Spec{Report: true}), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"model", "cycles", "instructions", "cores", "mem"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("missing top-level field %q", key)
		}
	}
	for _, key := range []string{"wall", "mips"} {
		if _, ok := doc[key]; ok {
			t.Errorf("nondeterministic field %q leaked into the encoding", key)
		}
	}
}
