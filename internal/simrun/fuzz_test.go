package simrun

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/memhier"
)

// FuzzSpecToFingerprint holds the spec boundary to its contract on bytes
// from outside (POST /v1/jobs bodies, fleet dispatches). ParseSpec,
// Spec.Scenario and Fingerprint never panic. An accepted spec rendered by
// json.Marshal is a fixed point of parse -> render -> parse: it renders to
// the same bytes, re-parses to a reflect.DeepEqual spec, builds (or fails
// to build) the same way and has the same fingerprint. The first render
// may differ from the raw bytes only in spelling (key order, whitespace,
// an empty list against an absent one); the fingerprint may not. And an
// accepted spec (none has explicit streams) is a bounded run: 1 <=
// TotalInstBudget < 2^63. Its resolved machine is one the simulators
// build: memhier.New and one branch.NewUnit per core neither panic (an
// unknown name in any of the five name fields is refused before). The seed
// corpus is testdata/fuzz/FuzzSpecToFingerprint.
func FuzzSpecToFingerprint(f *testing.F) {
	f.Add([]byte(`{"bench":"gcc","model":"interval","cores":2,"fabric":"mesh","report":true}`))
	f.Add([]byte(`{"mix":["gcc","mcf"],"cores":4,"seed":0,"mix":[]}`))

	// built renders what a spec builds to: its fingerprint, or the error
	// that stopped it. A spec that builds is a run that ends: its total
	// budget is at least one instruction and below 2^63.
	built := func(t *testing.T, sp Spec) string {
		sc, err := sp.Scenario()
		if err != nil {
			return "error: " + err.Error()
		}
		if n := sc.TotalInstBudget(); n < 1 || n >= 1<<63 {
			t.Fatalf("spec %+v builds with a total budget of %d instructions", sp, n)
		}
		m, err := sc.ResolvedMachine()
		if err != nil {
			t.Fatalf("spec %+v builds but its machine does not resolve: %v", sp, err)
		}
		construct(m)
		fp, err := sc.Fingerprint()
		if err != nil {
			return "error: " + err.Error()
		}
		return fp
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		render := func(sp Spec) []byte {
			raw, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("an accepted spec does not render: %v", err)
			}
			return raw
		}
		reparse := func(raw []byte) Spec {
			sp, err := ParseSpec(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("rendered spec %s is rejected: %v", raw, err)
			}
			return sp
		}

		first := render(sp)
		again := reparse(first)
		second := render(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("render is not a fixed point:\n%s\n%s", first, second)
		}
		if third := reparse(second); !reflect.DeepEqual(again, third) {
			t.Fatalf("rendered spec %s re-parses to %+v, then to %+v", first, again, third)
		}
		if a, b := built(t, sp), built(t, again); a != b {
			t.Fatalf("spec %s builds to %s, its rendering %s to %s", data, a, first, b)
		}
	})
}

// constructEntries bounds the machines the spec fuzzer constructs: the
// caches, TLBs and predictor tables of all cores hold at most this many
// entries in all. Larger accepted machines are resolved and fingerprinted
// but not built, so one input cannot take the fuzzer's memory.
const constructEntries = 1 << 20

// construct builds what a run of m would build before its first cycle: the
// memory hierarchy and one branch predictor per core.
func construct(m config.Machine) {
	lines := func(c config.Cache) int { return c.SizeBytes / c.LineSize }
	mem, b := m.Mem, m.Branch
	perCore := lines(mem.L1I) + lines(mem.L1D) + mem.ITLB.Entries + mem.DTLB.Entries +
		b.LocalHistoryEntries + b.PHTEntries + b.BTBEntries + b.RASEntries
	total := m.Cores * perCore
	if mem.HasL2 {
		total += lines(mem.L2)
	}
	if total > constructEntries {
		return
	}
	memhier.New(m.Cores, mem, memhier.Perfect{})
	for range m.Cores {
		branch.NewUnit(b)
	}
}

// identified builds a spec from raw JSON and returns it with its resolved
// identity and fingerprint; ok is false when any step rejects it.
func identified(raw []byte) (sp Spec, body fingerprintBody, fp string, ok bool) {
	sp, err := ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return sp, body, "", false
	}
	sc, err := sp.Scenario()
	if err != nil {
		return sp, body, "", false
	}
	if body, err = sc.identity(fingerprintVersion); err != nil {
		return sp, body, "", false
	}
	fp, err = sc.Fingerprint()
	return sp, body, fp, err == nil
}

// FuzzFingerprintIsIdentity holds the fingerprint to "equal specs <=> equal
// fingerprints". For two specs that both build, the fingerprints are equal
// exactly when their resolved identities (the fingerprint body, machine
// resolved) are reflect.DeepEqual. And what is not identity never moves
// it: a spec re-spelled with its resolved machine in place of its knobs,
// and with another label, engine and hostpar, keeps its fingerprint. That
// is what lets cmd/sweep spell a machine tweak as Spec.Machine. The seed
// pairs are testdata/fuzz/FuzzFingerprintIsIdentity; TestIdentitySeeds
// checks the verdict each one's name states.
func FuzzFingerprintIsIdentity(f *testing.F) {
	f.Add([]byte(`{"bench":"gcc","cores":2,"prefetch":"stride"}`), []byte(`{"bench":"gcc","copies":2,"prefetch":"stride"}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		spA, bodyA, fpA, okA := identified(a)
		_, bodyB, fpB, okB := identified(b)
		if same := reflect.DeepEqual(bodyA, bodyB); okA && okB && (fpA == fpB) != same {
			t.Fatalf("fingerprints equal = %v, identities equal = %v:\n%s\n%s", fpA == fpB, same, a, b)
		}
		if !okA {
			return
		}
		re := spA
		m := bodyA.Machine
		re.Machine, re.Fabric, re.Coherence, re.DRAM, re.Prefetch, re.Predictor = &m, "", "", "", "", ""
		re.Label, re.Engine, re.HostPar, re.Quantum = "re-spelled", DefaultEngine, spA.HostPar+1, spA.Quantum+1
		raw, err := json.Marshal(re)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, fp, ok := identified(raw); !ok || fp != fpA {
			t.Fatalf("spec %s re-spelled as %s: fingerprint %q (built %v), want %q", a, raw, fp, ok, fpA)
		}
	})
}

// TestIdentitySeeds: each FuzzFingerprintIsIdentity seed pair is named for
// its verdict, "equal-..." or "differ-...", and both halves build.
func TestIdentitySeeds(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzFingerprintIsIdentity/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seed pairs (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: want a header and two []byte values", path)
		}
		var fps [2]string
		for i, line := range lines[1:] {
			raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			_, _, fp, ok := identified([]byte(raw))
			if !ok {
				t.Fatalf("%s: %s does not build", path, raw)
			}
			fps[i] = fp
		}
		name := filepath.Base(path)
		if equal := strings.HasPrefix(name, "equal-"); equal != (fps[0] == fps[1]) {
			t.Errorf("%s: fingerprints equal = %v", name, fps[0] == fps[1])
		}
	}
}
