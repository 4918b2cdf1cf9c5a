package simrun

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecToFingerprint holds the spec boundary to its contract on bytes
// from outside (POST /v1/jobs bodies, fleet dispatches). ParseSpec,
// Spec.Scenario and Fingerprint never panic. An accepted spec rendered by
// json.Marshal is a fixed point of parse -> render -> parse: it renders to
// the same bytes, re-parses to a reflect.DeepEqual spec, builds (or fails
// to build) the same way and has the same fingerprint. The first render
// may differ from the raw bytes only in spelling (key order, whitespace,
// an empty list against an absent one); the fingerprint may not.
// The seed corpus is testdata/fuzz/FuzzSpecToFingerprint.
func FuzzSpecToFingerprint(f *testing.F) {
	f.Add([]byte(`{"bench":"gcc","model":"interval","cores":2,"fabric":"mesh","report":true}`))
	f.Add([]byte(`{"mix":["gcc","mcf"],"cores":4,"seed":0,"mix":[]}`))

	// built renders what a spec builds to: its fingerprint, or the error
	// that stopped it.
	built := func(sp Spec) string {
		sc, err := sp.Scenario()
		if err != nil {
			return "error: " + err.Error()
		}
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
		if a, b := built(sp), built(again); a != b {
			t.Fatalf("spec %s builds to %s, its rendering %s to %s", data, a, first, b)
		}
	})
}
