package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestTraceNeedsScenariosSweep: only the preset matrix writes traces, so
// -trace with any other sweep is a usage error, not a silent no-op.
func TestTraceNeedsScenariosSweep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	err := run([]string{"-sweep", "ci", "-trace", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("-sweep ci -trace: err = %v, want a usage error naming -trace", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected -trace still touched %s (stat: %v)", dir, err)
	}
}

// TestTracedScenarioMatrix: the traced preset matrix writes one non-empty
// trace per preset, byte-identical at one and four workers, and prints
// the untraced sweep's digests.
func TestTracedScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the preset matrix three times; skipped in -short mode")
	}
	var plain bytes.Buffer
	if err := run([]string{"-sweep", "scenarios"}, &plain); err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, workers := range []string{"1", "4"} {
		dir := filepath.Join(t.TempDir(), "w"+workers)
		var out bytes.Buffer
		if err := run([]string{"-sweep", "scenarios", "-workers", workers, "-trace", dir}, &out); err != nil {
			t.Fatal(err)
		}
		if want := plain.String() + "traces: " + dir + "/<scenario>.ndjson\n"; out.String() != want {
			t.Errorf("-workers %s: traced report\n%s\nwant the untraced digests\n%s", workers, out.String(), want)
		}
		dirs = append(dirs, dir)
	}
	presets := scenario.PacketPresets()
	if entries, err := os.ReadDir(dirs[0]); err != nil || len(entries) != len(presets) {
		t.Errorf("trace dir holds %d entries (err %v), want one per preset (%d)", len(entries), err, len(presets))
	}
	for _, s := range presets {
		name := s.Name + ".ndjson"
		serial, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s differs between -workers 1 and -workers 4", name)
		}
	}
}
