package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{xs, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 9}, 1, 5, 9},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of nothing should be NaN")
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"identical", parent, parent, true, 0.1, Same},
		{"faster everywhere", parent, shift(parent, -5), true, 0.1, Better},
		{"within bound", parent, shift(parent, 5), true, 0.1, Same},
		{"beyond bound", parent, shift(parent, 15), true, 0.1, Worse},
		{"higher is better", parent, shift(parent, 15), false, 0.1, Better},
		{"throughput loss", parent, shift(parent, -15), false, 0.1, Worse},
		{"spread wider than bound", noisy, shift(noisy, 3), true, 0.1, Unresolved},
		{"noisy but all better", noisy, shift(noisy, -100), true, 0.1, Better},
		{"unbounded loss", parent, shift(parent, 15), true, 0, Worse},
		{"unbounded small change", parent, shift(parent, 1), true, 0, Same},
		{"no pairs", parent, nil, true, 0.1, Unresolved},
	} {
		if got := Judge(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: Judge = %s, want %s", c.name, got, c.want)
		}
	}
	// Winning eight pairs in ten is not a gain, however large the gap.
	b := shift(parent, -20)
	b[0], b[1] = 200, 200
	if got := Judge(parent, b, true, 0.1); got == Better {
		t.Errorf("8/10 pair wins judged %s", got)
	}
}

func TestParseTraces(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"olsr":       1.21, // a generic sort whose shape names addr.Node, and an addr utility frame
		"radio":      0.02, // geo and addr pass their samples to the caller
		"sim":        0.03,
		"detect":     0.04, // signature belongs to detect
		"runtime":    0.06, // no repro frame, or only utility frames
		"manetd":     0.06,
		"loadgen":    0.07, // the sample label line is skipped
		"scenario":   1.01,
		"experiment": 0.01,
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for l, w := range want {
		if !near(got[l], w) {
			t.Errorf("%s = %v s, want %v s", l, got[l], w)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/olsr.(*Node).processTC":                            "repro/internal/olsr",
		"slices.Sort[go.shape.[]repro/internal/addr.Node,go.shape.uint32]": "slices",
		"repro/internal/experiment.mapTasksCtx[go.shape.int].func1":        "repro/internal/experiment",
		"main.main":              "main",
		"runtime.mcall":          "runtime",
		"repro/bench.Run":        "repro/bench",
		"net/http.(*conn).serve": "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the registries and to the
// limits the file format allows.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(Workloads) || len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != Workloads[i].name || w.Why != Workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the registry %q", i, w.Name, Workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compareList := func(kind string, got []metric, want []Metric, maxN int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > maxN {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d registered (at most %d)", kind, len(got), len(want), maxN)
		}
		for i, m := range got {
			checkName(m.Name)
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, registry %+v", kind, i, m, w)
			}
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: bad unit %q or direction %q", kind, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, registry %v (want 0 < bound <= 0.25)", kind, m.Name, m.Bound, w.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, m.Name)
			}
		}
	}
	compareList("end_to_end", doc.EndToEnd, EndToEnd, 16, true)
	compareList("per_layer", doc.PerLayer, PerLayer, 128, false)
	if _, ok := seen["setup_s"]; !ok {
		t.Error("no setup_s metric")
	}
	for _, m := range EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound < 0.25) {
			t.Errorf("setup_s must be seconds, lower-better, with the largest bound: %+v", m)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenarios and a service")
	}
	root, err := FindRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Lookup("linkspoof")
	ls, err := w.open(Options{Workload: "linkspoof", Seed: 7, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	if err := ls.warm(); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.run(0, 2); err != nil {
		t.Fatal(err)
	}
	if c := ls.checks(); c.failed != 0 || c.attempted != 3 {
		t.Errorf("linkspoof: %d of %d checks failed: %s", c.failed, c.attempted, c.first)
	}

	w, _ = Lookup("serve")
	sv, err := w.open(Options{Workload: "serve", Seed: 7, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	if _, err := sv.setup(); err != nil {
		t.Fatal(err)
	}
	lat, err := sv.run(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if c := sv.checks(); c.failed != 0 || c.attempted != 20 || len(lat) != 20 {
		t.Errorf("serve: %d of %d checks failed (%d latencies): %s", c.failed, c.attempted, len(lat), c.first)
	}
}
