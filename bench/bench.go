// Package bench is manetbench, the repository's benchmark. Each run
// executes one named workload in its own process, drives the system only
// through its public entry points (scenario.Build/Run/RunTraced,
// experiment.Runner.ScenarioMatrix, manetd over loopback HTTP), checks
// every output, and reports either the end-to-end metrics (tracing off)
// or the per-layer metrics (a separate traced pass). See README.md.
package bench

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Options are the inputs of one run.
type Options struct {
	Workload string
	// Seed generates the run's inputs: the same seed gives the same
	// scenario seeds, campaigns and op count.
	Seed int64
	// Seconds sizes the run: a workload performs as many ops as its
	// nominal op time fits into Seconds on the reference host.
	Seconds int
	// Trace selects the per-layer pass instead of the end-to-end one.
	Trace bool
	// Root is the repository root (it holds testdata/golden).
	Root string
	// Scratch is a writable directory for the CPU profile.
	Scratch string
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (0 for exact counts).
	N int `json:"n,omitempty"`
}

// Result is the outcome of one run.
type Result struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Host      Host   `json:"host"`
	Ops       int    `json:"ops"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FirstFailure describes the first failed check, if any.
	FirstFailure string `json:"firstFailure,omitempty"`
	// Metrics holds exactly the registered set (EndToEnd or PerLayer).
	Metrics map[string]Value `json:"metrics"`
	// Extra holds what only this workload has: the matrix's per-preset
	// table and worker comparison, the service's stage latencies.
	Extra map[string]Value `json:"extra,omitempty"`
}

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 51

// workload is one named input set.
type workload struct {
	name string
	why  string
	// nominal is one op's wall time on the reference host (2 cores,
	// go1.24); a run performs ceil(Seconds/nominal) ops, at least minOps.
	nominal time.Duration
	minOps  int
	// corpus is the preset whose victim-bound frames feed the replay
	// tier, recorded for corpusUntil of simulated time (0 = the whole run).
	corpus      string
	corpusUntil time.Duration
	open        func(o Options) (instance, error)
}

// instance is a workload prepared for one run.
type instance interface {
	// setup builds the system under test from scratch, times it, and
	// tears it down again.
	setup() (time.Duration, error)
	// warm runs the untimed warm-up.
	warm() error
	// run performs ops [from, from+n) and returns each op's wall-clock
	// span; op i's inputs depend only on the seed and i.
	run(from, n int) ([]span, error)
	// layers gathers the traced pass's counts and engine figures for the
	// n ops run performed, whose wall seconds are lat.
	layers(n int, lat []float64) (*layerData, error)
	// checks reports the outputs checked so far.
	checks() *checker
	// close stops everything the instance started.
	close()
}

// Workloads lists the registered workloads in BENCHMARK.json order.
var Workloads = []workload{
	{
		name: "linkspoof",
		why: "the paper's headline attack on 16 static nodes; OLSR holds most of the CPU, " +
			"so routing-path gains show here and ctrl-envelope or sealing gains do not",
		nominal: 130 * time.Millisecond,
		minOps:  10,
		corpus:  "linkspoof",
		open:    openSim("linkspoof", true),
	},
	{
		name: "linkspoof-200",
		why: "the same attack at 200 nodes on the grid medium: TC flooding, the grid, " +
			"the event heap and GC grow with size here",
		nominal: 15 * time.Second,
		minOps:  2,
		corpus:  "linkspoof-200",
		// The replay corpus stops after the attack starts (30s): a full
		// recording run would cost another 15 s of a traced run.
		corpusUntil: 35 * time.Second,
		open:        openSim("linkspoof-200", false),
	},
	{
		name: "matrix",
		why: "every golden preset on the parallel engine, what CI pays; the only workload " +
			"with the engine, sealed logs, ctrl envelopes and reputation gossip",
		nominal: 2500 * time.Millisecond,
		minOps:  4,
		corpus:  "linkspoof",
		open:    openSim("", true),
	},
	{
		name: "serve",
		why: "closed loop of nproc clients submitting tiny 4-node campaigns to manetd over " +
			"loopback HTTP; service plumbing, JSON and the runtime hold most of the CPU",
		nominal: 350 * time.Microsecond,
		minOps:  200,
		corpus:  "linkspoof",
		open:    openServe,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (workload, bool) {
	for _, w := range Workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Name returns the workload's registered name.
func (w workload) Name() string { return w.name }

// ops sizes a run.
func (w workload) ops(seconds int) int {
	n := int(math.Ceil(float64(seconds) * float64(time.Second) / float64(w.nominal)))
	return max(n, w.minOps)
}

// FindRoot returns the repository root: the first of dir and its parent
// that holds the golden corpus.
func FindRoot(dir string) (string, error) {
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if st, err := os.Stat(filepath.Join(d, "testdata", "golden")); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("no testdata/golden in %s or its parent: run from the repository root", dir)
}

// Run executes one run of opts.Workload.
func Run(o Options) (*Result, error) {
	w, ok := Lookup(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds < 1 {
		return nil, errors.New("seconds must be at least 1")
	}
	inst, err := w.open(o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res := &Result{Workload: w.name, Trace: o.Trace, Seed: o.Seed, Seconds: o.Seconds, Host: ThisHost()}
	if o.Trace {
		err = tracedPass(o, w, inst, res)
	} else {
		err = endToEnd(w, inst, res, o.Seconds)
	}
	if err != nil {
		return nil, err
	}
	chk := inst.checks()
	res.Attempted, res.Failed, res.FirstFailure = chk.attempted, chk.failed, chk.first
	res.Correct = chk.failed == 0 && chk.attempted > 0
	return res, nil
}

// span is one op's wall-clock interval.
type span struct{ start, end time.Time }

// durations returns the spans' lengths in seconds.
func durations(sp []span) []float64 {
	out := make([]float64, len(sp))
	for i, x := range sp {
		out[i] = x.end.Sub(x.start).Seconds()
	}
	return out
}

// windows is how many windows a run's ops are cut into for ops_per_s.
const windows = 100

// bestWindow cuts the ops, in completion order, into consecutive windows
// of max(1, len/windows) completions and returns the highest throughput
// among them, in ops per second. A window lasts from the previous
// window's last completion (the first op's start for the first window)
// to its own last completion.
func bestWindow(sp []span) float64 {
	if len(sp) == 0 {
		return 0
	}
	ends := make([]time.Time, len(sp))
	prev := sp[0].start
	for i, x := range sp {
		ends[i] = x.end
		if x.start.Before(prev) {
			prev = x.start
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	w := max(1, len(ends)/windows)
	var best float64
	for k := w - 1; k < len(ends); k += w {
		if d := ends[k].Sub(prev).Seconds(); d > 0 {
			best = max(best, float64(w)/d)
		}
		prev = ends[k]
	}
	return best
}

// endToEnd warms up, then runs the ops with tracing off, with setupReps
// set-ups spread evenly between them: a set-up takes microseconds, so a
// burst of them at start-up would sample one moment of the host's load
// rather than the run's. Set-up allocations are kept out of the per-op
// counts.
//
// Other tenants of a shared host slow it down by 10-30% for stretches of
// seconds to minutes, which moves a run's median op time by as much. The
// registered timings therefore come from each run's least-disturbed
// stretch: op_s is the fastest op, and ops_per_s the best of the run's
// windows. The whole-run median and tail percentiles are reported beside
// them, unbounded.
func endToEnd(w workload, inst instance, res *Result, seconds int) error {
	if err := inst.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	n := w.ops(seconds)
	setups := make([]float64, 0, setupReps)
	spans := make([]span, 0, n)
	var setupAllocs, setupBytes uint64
	runtime.GC()
	u0 := readUsage()
	for c := range setupReps {
		from, to := c*n/setupReps, (c+1)*n/setupReps
		sp, err := inst.run(from, to-from)
		if err != nil {
			return err
		}
		spans = append(spans, sp...)
		before := readUsage()
		d, err := inst.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		after := readUsage()
		setups = append(setups, d.Seconds())
		setupAllocs += after.allocs - before.allocs
		setupBytes += after.allocBytes - before.allocBytes
	}
	u1 := readUsage()
	lat := durations(spans)
	wall := u1.wall.Sub(u0.wall).Seconds()
	res.Ops = n
	res.Metrics = map[string]Value{
		"setup_s":         {Median(setups), "s", len(setups)},
		"op_s":            {slices.Min(lat), "s", n},
		"ops_per_s":       {bestWindow(spans), "1/s", n},
		"allocs_per_op":   {float64(u1.allocs-u0.allocs-setupAllocs) / float64(n), "count", n},
		"alloc_mb_per_op": {float64(u1.allocBytes-u0.allocBytes-setupBytes) / float64(n) / (1 << 20), "MB", n},
		"max_rss_mb":      {maxRSSMB(), "MB", 0},
	}
	res.Extra = map[string]Value{
		"op_median_s":    {Median(lat), "s", n},
		"op_p90_s":       {Percentile(lat, 90), "s", n},
		"op_p99_s":       {Percentile(lat, 99), "s", n},
		"ops_per_s_mean": {float64(n) / wall, "1/s", n},
	}
	return nil
}

// Lines renders the result as "name value unit" lines, sorted by name,
// with the sample count where there is one.
func (r *Result) Lines() []string {
	var out []string
	for _, set := range []map[string]Value{r.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := set[n]
			line := fmt.Sprintf("%s %s %s", n, formatValue(v.Value), v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
			}
			out = append(out, line)
		}
	}
	return out
}

// formatValue prints a number to ten significant digits (the JSON line
// carries every digit).
func formatValue(v float64) string {
	return fmt.Sprintf("%.10g", v)
}
