package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trust"
)

func TestDeriveSeedDistinct(t *testing.T) {
	// Every coordinate of a task — the runner's root seed included —
	// must perturb its derived seed: colliding streams would silently
	// correlate "independent" trials.
	base := NewRunner(1, 0).TaskSeed("sweep", 2, 3)
	variants := []int64{
		NewRunner(2, 0).TaskSeed("sweep", 2, 3),
		NewRunner(1, 0).TaskSeed("sweep2", 2, 3),
		NewRunner(1, 0).TaskSeed("sweep", 3, 3),
		NewRunner(1, 0).TaskSeed("sweep", 2, 4),
		// Field boundaries must not be ambiguous: (point, trial) swaps
		// and string/int concatenation overlaps must differ.
		NewRunner(1, 0).TaskSeed("sweep", 3, 2),
	}
	seen := map[int64]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides: %d", i, v)
		}
		seen[v] = true
	}
}

func TestMapTasksOrderAndEdgeCases(t *testing.T) {
	for _, workers := range []int{1, 3, 16, 100} {
		got := mapTasks(workers, 10, func(i int, _ *Arena) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out := mapTasks(4, 0, func(i int, _ *Arena) int { return i }); out != nil {
		t.Errorf("n=0 returned %v, want nil", out)
	}
}

func TestArenaReuse(t *testing.T) {
	// A worker's arena must hand back the same backing storage across
	// tasks (that is the point) while never leaking values: each getter
	// returns a length-zero slice.
	var a Arena
	first := a.Observations(8)
	if len(first) != 0 || cap(first) < 8 {
		t.Fatalf("Observations(8): len=%d cap=%d", len(first), cap(first))
	}
	first = append(first, trust.Observation{Trust: 1})
	second := a.Observations(4)
	if len(second) != 0 {
		t.Fatalf("arena leaked %d observations into the next task", len(second))
	}
	if &first[0] != &second[:1][0] {
		t.Error("arena reallocated despite sufficient capacity")
	}
	if cap(a.Samples(16)) < 16 || len(a.Samples(16)) != 0 {
		t.Error("Samples did not return an empty 16-cap buffer")
	}

	// mapTasks with one worker funnels every task through one arena;
	// results must still be index-addressed and exact.
	seen := make(map[*Arena]bool)
	out := mapTasks(1, 5, func(i int, a *Arena) int {
		seen[a] = true
		buf := a.Samples(3)
		buf = append(buf, float64(i))
		return int(buf[0]) * 2
	})
	if len(seen) != 1 {
		t.Errorf("single worker used %d arenas, want 1", len(seen))
	}
	for i, v := range out {
		if v != i*2 {
			t.Errorf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestTaskSeedNilRunner(t *testing.T) {
	// A nil runner degrades to root seed 0 / GOMAXPROCS workers rather
	// than panicking, so zero-value plumbing stays safe.
	var r *Runner
	if got, want := r.TaskSeed("s", 1, 2), scenario.DeriveSeed(0, "s", 1, 2); got != want {
		t.Errorf("nil runner TaskSeed = %d, want %d", got, want)
	}
	if r.workerCount() <= 0 {
		t.Error("nil runner workerCount not positive")
	}
}

// snapshotAll renders every ported runner's output to one string so runs
// at different worker counts can be compared byte for byte.
func snapshotAll(t *testing.T, workers int, full bool) string {
	t.Helper()
	var b strings.Builder
	eng := NewRunner(7, workers)
	cfg := DefaultConfig()
	cfg.Seed = 7

	figs, err := eng.Figures(context.Background(), cfg, []int{1, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(figs.Fig1.Table.Render())
	fmt.Fprintf(&b, "%+v\n", figs.Fig1.LiarFinalMax)
	b.WriteString(figs.Fig2.Table.Render())
	b.WriteString(figs.Fig3.Table.Render())
	fmt.Fprintf(&b, "%+v\n%+v\n", figs.Fig3.RoundToMinus04, figs.Fig3.Final)

	for _, p := range eng.CISweep([]float64{0.90, 0.99}, []int{5, 15, 45}, 0.25) {
		fmt.Fprintf(&b, "%+v\n", p)
	}

	abl := eng.Ablation(cfg)
	b.WriteString(abl.Table.CSV())
	fmt.Fprintf(&b, "%v %v\n", abl.FinalWeighted, abl.FinalUniform)
	fmt.Fprintf(&b, "%+v\n", eng.CIAccumulationAblation(cfg))

	if full {
		for _, p := range eng.OverheadSweep([]int{8}) {
			fmt.Fprintf(&b, "%+v\n", p)
		}
		fmt.Fprintf(&b, "%+v\n", eng.Baselines())
	}
	return b.String()
}

func TestEngineDeterminism(t *testing.T) {
	// The acceptance property of the engine: with a fixed root seed the
	// output is byte-identical no matter how many workers execute it.
	full := !testing.Short() // packet-level runners are slower; skip with -short
	baseline := snapshotAll(t, 1, full)
	if len(baseline) == 0 {
		t.Fatal("empty baseline snapshot")
	}
	for _, workers := range []int{4, 8} {
		if got := snapshotAll(t, workers, full); got != baseline {
			t.Errorf("workers=%d: output differs from serial run", workers)
		}
	}
}

func TestEngineDeterminismRepeated(t *testing.T) {
	// Same worker count, repeated runs: flushes out any hidden shared
	// state between tasks (a data race would also trip -race here).
	a := snapshotAll(t, 4, false)
	b := snapshotAll(t, 4, false)
	if a != b {
		t.Error("repeated parallel runs differ")
	}
}

func TestMobilitySweepGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep is slow")
	}
	// One speed, two derived trials: the reduction must count every trial
	// exactly once.
	pts := NewRunner(1, 4).MobilitySweep(2, []float64{0})
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if pts[0].Runs != 2 {
		t.Errorf("runs = %d, want 2", pts[0].Runs)
	}
	if pts[0].Detected+pts[0].FalsePositives > pts[0].Runs {
		t.Errorf("counts exceed runs: %+v", pts[0])
	}
}
