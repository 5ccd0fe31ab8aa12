package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpecVersioning pins the wire-format versioning contract: version
// omitted (0) and version 1 are this build's format; anything else is
// rejected with a message naming both versions, and the JSON parser
// already rejects unknown fields, so a future-version spec can never be
// silently half-read.
func TestSpecVersioning(t *testing.T) {
	base := Spec{Name: "v", Seed: 1, Nodes: 4, Duration: Dur(5 * time.Second)}
	if err := base.Validate(); err != nil {
		t.Fatalf("version omitted: %v", err)
	}
	base.Version = SpecVersion
	if err := base.Validate(); err != nil {
		t.Fatalf("version %d: %v", SpecVersion, err)
	}
	base.Version = SpecVersion + 1
	err := base.Validate()
	if err == nil {
		t.Fatalf("version %d accepted", base.Version)
	}
	if !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version error %q does not name both versions", err)
	}

	if _, err := Parse([]byte(`{"name": "v", "version": 1, "seed": 1, "nodes": 4, "duration": "5s"}`)); err != nil {
		t.Errorf("Parse version 1: %v", err)
	}
	if _, err := Parse([]byte(`{"name": "v", "version": 7, "seed": 1, "nodes": 4, "duration": "5s"}`)); err == nil {
		t.Error("Parse accepted version 7")
	}
}

// TestParseRejectsRetiredCodecField pins the retirement of the v1
// field "binaryCtrl": the binary envelope it opted into is the only
// control-plane codec, so a stored spec that still sets it, with either
// value, fails Parse with an error naming the field instead of running.
func TestParseRejectsRetiredCodecField(t *testing.T) {
	spec, ok := Get("logforger")
	if !ok {
		t.Fatal("logforger preset missing")
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "binaryCtrl") {
		t.Fatalf("Spec.JSON emits the retired field:\n%s", data)
	}
	if _, err := Parse(data); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"true", "false"} {
		stored := strings.Replace(string(data), "{", `{"binaryCtrl": `+v+`,`, 1)
		_, err := Parse([]byte(stored))
		if err == nil {
			t.Errorf("binaryCtrl %s accepted", v)
		} else if !strings.Contains(err.Error(), "binaryCtrl") {
			t.Errorf("binaryCtrl %s: error %q does not name the field", v, err)
		}
	}
}

// TestPresetsCarryNoVersion guards the golden corpus: presets leave the
// version field at its omitted default, so their JSON serialization —
// and with it every pinned digest input — is unchanged by versioning.
func TestPresetsCarryNoVersion(t *testing.T) {
	for _, s := range Presets() {
		if s.Version != 0 {
			t.Errorf("preset %q carries explicit version %d", s.Name, s.Version)
		}
		if s.WithDefaults().Version != 0 {
			t.Errorf("WithDefaults invents a version for %q", s.Name)
		}
	}
}

// TestRunContextCancel aborts a simulation mid-run and checks the error
// names the scenario; a background context must be a no-op.
func TestRunContextCancel(t *testing.T) {
	spec := Spec{Name: "cancelme", Seed: 1, Nodes: 16, Duration: Dur(4 * time.Minute),
		Mobility: MobilitySpec{Model: "waypoint", MaxSpeed: 2}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, spec, nil); err == nil || !strings.Contains(err.Error(), "cancelme") {
		t.Errorf("pre-canceled run: err = %v, want cancellation naming the scenario", err)
	}

	tiny := Spec{Name: "tiny", Seed: 1, Nodes: 4, Duration: Dur(5 * time.Second)}
	bg, err := RunContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatalf("background RunContext: %v", err)
	}
	plain, err := Run(tiny)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bg.Digest() != plain.Digest() {
		t.Error("RunContext(Background) digest diverges from Run")
	}
}
