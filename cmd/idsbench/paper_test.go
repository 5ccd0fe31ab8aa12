package main

// Paper goldens: each extension sweep's report at the published defaults
// (root seed 1, -runs 3) is compared byte-for-byte against its file
// under testdata/paper/. Regenerate after an intentional change with
//
//	go test -run TestPaperSweeps -update-golden ./cmd/idsbench
//
// (or `make golden-update`). The scale sweep prints wall-clock times and
// the scenarios sweep repeats the preset digests TestGoldenCorpus pins,
// so neither is pinned here.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/paper from this run")

func TestPaperSweeps(t *testing.T) {
	for _, sweep := range []string{"ci", "ablation", "baselines", "forgers", "recommenders", "mobility", "size"} {
		t.Run(sweep, func(t *testing.T) {
			if testing.Short() && (sweep == "forgers" || sweep == "recommenders" || sweep == "mobility") {
				t.Skip("packet-level sweep; skipped in -short mode")
			}
			var out bytes.Buffer
			if err := run([]string{"-sweep", sweep}, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "testdata", "paper", "idsbench-"+sweep+".golden")
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
				t.Errorf("-sweep %s drifted from %s (rerun with -update-golden if intentional)\n--- got\n%s--- want\n%s",
					sweep, path, out.Bytes(), want)
			}
		})
	}
}
