package main

// Paper golden: `trustlab -figure all` at the published defaults (seed
// 1, 16 nodes, 4 liars, 25 rounds) is compared byte-for-byte against
// testdata/paper/trustlab-figure-all.golden. Regenerate after an
// intentional change with
//
//	go test -run TestPaperFigures -update-golden ./cmd/trustlab
//
// (or `make golden-update`).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/paper from this run")

func TestPaperFigures(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "all"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "testdata", "paper", "trustlab-figure-all.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil { //nolint:gosec // test data
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-figure all drifted from %s (rerun with -update-golden if intentional)\n--- got\n%s--- want\n%s",
			path, out.Bytes(), want)
	}
}
