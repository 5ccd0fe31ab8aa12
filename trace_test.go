package repro

// The trace plane's root contract (DESIGN.md §13), pinned from outside
// the package: tracing is pure observation. A traced run and an
// untraced run of every preset produce byte-identical golden digests,
// two same-seed traced runs produce byte-identical NDJSON, and a seed
// perturbation shows up as a first divergence — which is the whole
// point of `reprotrace diff`.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// sendCounter is a Recorder that also counts net/send events.
type sendCounter struct {
	trace.Recorder
	sends uint64
}

func (r *sendCounter) Event(e trace.Event) {
	if e.Plane == trace.PlaneNet && e.Kind == trace.KindSend {
		r.sends++
	}
	r.Recorder.Event(e)
}

// TestTraceOffIsInert runs every packet preset twice — sink off, then a
// Recorder — and requires the same digest both ways, byte-for-byte
// against the checked-in golden file. This is the forced-ON golden
// pass: the corpus digests hold with tracing enabled, not just when
// the sink is nil. The traced run must also log one net/send per frame
// the medium counts as sent: every node-originated frame, attack
// choreography included, goes through core.Network.Send. Presets with
// a wormhole are exempt, since its mouths are stations, not nodes.
func TestTraceOffIsInert(t *testing.T) {
	if testing.Short() {
		t.Skip("full preset corpus; skipped with -short")
	}
	for _, spec := range scenario.PacketPresets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			plain, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			rec := &sendCounter{}
			traced, err := scenario.RunTraced(spec, rec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Len() == 0 {
				t.Fatal("traced run recorded no events")
			}
			wormhole := false
			for _, a := range spec.Attacks {
				wormhole = wormhole || a.Kind == "wormhole"
			}
			if !wormhole && rec.sends != traced.Frames.FramesSent {
				t.Errorf("traced %d net/send events for %d frames sent", rec.sends, traced.Frames.FramesSent)
			}
			got, want := traced.Digest(), plain.Digest()
			if got != want {
				t.Errorf("tracing changed the run:\n--- traced\n%s\n--- untraced\n%s",
					got.Canonical, want.Canonical)
			}
			golden, err := os.ReadFile(filepath.Join(goldenDir, spec.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got.GoldenFile() != string(golden) {
				t.Errorf("traced digest drifted from the golden file:\n--- traced\n%s--- golden\n%s",
					got.GoldenFile(), golden)
			}
		})
	}
}

// TestTraceDiff pins the determinism contract the diff tool relies on:
// same seed → zero divergences, perturbed seed → a reported first
// divergence.
func TestTraceDiff(t *testing.T) {
	spec, err := scenario.Resolve("linkspoof")
	if err != nil {
		t.Fatal(err)
	}
	runTrace := func(s scenario.Spec) []byte {
		rec := &trace.Recorder{}
		if _, err := scenario.RunTraced(s, rec); err != nil {
			t.Fatal(err)
		}
		return rec.NDJSON()
	}
	a, b := runTrace(spec), runTrace(spec)
	div, err := trace.Diff(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("same-seed traces diverge: %s", div)
	}

	perturbed := spec
	perturbed.Seed = spec.WithDefaults().Seed + 1
	c := runTrace(perturbed)
	div, err = trace.Diff(bytes.NewReader(a), bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("seed-perturbed traces did not diverge")
	}
	if div.Line <= 0 || (div.A == nil && div.B == nil) {
		t.Fatalf("divergence carries no usable location: %+v", div)
	}
}

// TestTraceTrialsWorkerInvariant runs a traced trial fan at 1 worker
// and at 8 and requires the per-trial NDJSON files to match
// byte-for-byte: per-run sinks make worker scheduling invisible, the
// same invariant the golden corpus pins for digests.
func TestTraceTrialsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial fan; skipped with -short")
	}
	spec, err := scenario.Resolve("linkspoof")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4
	run := func(workers int) string {
		dir := filepath.Join(t.TempDir(), "traces")
		eng := experiment.NewRunner(spec.WithDefaults().Seed, workers)
		if _, err := eng.ScenarioTrials(context.Background(), spec, trials, dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	serial, parallel := run(1), run(8)
	for i := 0; i < trials; i++ {
		name := experiment.TraceFileName(i)
		a, err := os.ReadFile(filepath.Join(serial, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parallel, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if !bytes.Equal(a, b) {
			div, _ := trace.Diff(bytes.NewReader(a), bytes.NewReader(b))
			t.Errorf("%s differs between 1 and 8 workers: %s", name, div)
		}
	}
}
