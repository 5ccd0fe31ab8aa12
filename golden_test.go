package repro

// The golden regression corpus: every packet-kind scenario preset is run
// and its canonical metrics digest compared byte-for-byte against the
// checked-in file under testdata/golden/. The matrix runs twice — on a
// single worker and on eight — and the two passes must agree exactly,
// which pins the determinism contract of the parallel engine alongside
// the scenario outcomes themselves.
//
// Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenCorpus -update-golden .
//
// (or `make golden-update`) and review the diff like any other code.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this run")

const goldenDir = "testdata/golden"

// mediumMatrix runs the specs under both radio.medium settings at the
// given worker count and fails on any digest divergence. Both run the one
// medium implementation: "scan" puts every station in one cell, "grid"
// uses cells of range plus speed padding, and the cell side is
// contractually a pure performance choice (DESIGN.md §2.4). It returns
// the digests.
func mediumMatrix(t *testing.T, specs []scenario.Spec, workers int) []scenario.Digest {
	t.Helper()
	scan := make([]scenario.Spec, len(specs))
	grid := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		scan[i], grid[i] = s, s
		scan[i].Radio.Medium = "scan"
		grid[i].Radio.Medium = "grid"
	}
	scanD, err := experiment.NewRunner(0, workers).ScenarioMatrix(scan)
	if err != nil {
		t.Fatal(err)
	}
	gridD, err := experiment.NewRunner(0, workers).ScenarioMatrix(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if scanD[i] != gridD[i] {
			t.Errorf("%s: digest differs between mediums at %d workers:\n--- scan\n%s\n--- grid\n%s",
				specs[i].Name, workers, scanD[i].Canonical, gridD[i].Canonical)
		}
	}
	return scanD
}

// verifyGoldenMatrix runs specs under both mediums at workers 8 and 1
// (via mediumMatrix), then compares — or with -update-golden, records —
// each digest against its testdata/golden file. updateCmd names the make
// target to suggest in failure messages. Both golden corpus tests share
// this loop so the workflow cannot drift between them.
//
// The grid pass at workers=1 is transitively implied by the other three
// (scan@8 == grid@8, scan@8 == scan@1) but runs anyway: each entry of
// the medium × worker matrix gets direct evidence, so a failure report
// names the exact combination that drifted instead of leaving it to be
// inferred.
func verifyGoldenMatrix(t *testing.T, specs []scenario.Spec, updateCmd string) {
	t.Helper()
	parallel := mediumMatrix(t, specs, 8)
	serial := mediumMatrix(t, specs, 1)

	for i, spec := range specs {
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			if parallel[i] != serial[i] {
				t.Fatalf("digest differs between 8 workers and 1 worker:\n--- workers=8\n%s\n--- workers=1\n%s",
					parallel[i].Canonical, serial[i].Canonical)
			}
			got := parallel[i].GoldenFile()
			path := filepath.Join(goldenDir, spec.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil { //nolint:gosec // test data
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file for preset %q (run `%s`): %v", spec.Name, updateCmd, err)
			}
			if got != string(want) {
				t.Errorf("digest drifted from %s — if intentional, run `%s` and commit the diff\n--- got\n%s--- want\n%s",
					path, updateCmd, got, want)
			}
		})
	}
}

func TestGoldenCorpus(t *testing.T) {
	specs := scenario.PacketPresets()
	if len(specs) < 6 {
		t.Fatalf("only %d packet presets — the corpus shrank", len(specs))
	}
	verifyGoldenMatrix(t, specs, "make golden-update")

	// No stale files: every golden file must correspond to a live preset.
	if !*updateGolden {
		entries, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatalf("read %s: %v", goldenDir, err)
		}
		live := map[string]bool{}
		for _, s := range specs {
			live[s.Name+".golden"] = true
		}
		// Large-N goldens belong to the scale corpus (TestGoldenScale).
		for _, s := range scenario.ScalePresets() {
			live[s.Name+".golden"] = true
		}
		for _, e := range entries {
			if !live[e.Name()] {
				t.Errorf("stale golden file %s has no matching preset", e.Name())
			}
		}
	}
}
