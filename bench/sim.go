package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// simInstance runs scenario presets: one preset per op run inline
// (linkspoof, linkspoof-200), or the whole golden matrix per op on the
// engine's pool (matrix).
type simInstance struct {
	presets []scenario.Spec // at their own seeds
	label   string
	seed    int64
	matrix  bool
	warmup  bool
	chk     *checker
}

// openSim opens the workload over one preset, or with preset == "" over
// every golden preset on the engine. With warmup the run first executes
// one untimed op at the presets' own seeds, checked against the goldens.
func openSim(preset string, warmup bool) func(Options) (instance, error) {
	return func(o Options) (instance, error) {
		s := &simInstance{label: o.Workload, seed: o.Seed, warmup: warmup, chk: newChecker(o.Root)}
		if preset == "" {
			s.matrix = true
			s.presets = scenario.PacketPresets()
			return s, nil
		}
		p, ok := scenario.Get(preset)
		if !ok {
			return nil, fmt.Errorf("no preset %q", preset)
		}
		s.presets = []scenario.Spec{p}
		return s, nil
	}
}

// opSeed is the scenario seed of op i. Ops come in pairs that share a
// seed, so every timed op has a twin whose digest must agree with it,
// while a run still averages over many seeds.
func opSeed(seed int64, label string, i int) int64 {
	return scenario.DeriveSeed(seed, "manetbench/"+label, 0, i/2)
}

// specs returns the scenario runs op i performs.
func (s *simInstance) specs(i int) []scenario.Spec {
	out := make([]scenario.Spec, len(s.presets))
	copy(out, s.presets)
	for j := range out {
		out[j].Seed = opSeed(s.seed, s.label, i)
	}
	return out
}

func (s *simInstance) checks() *checker { return s.chk }
func (s *simInstance) close()           {}

// setup builds every scenario of an op (the matrix sums its 14 builds).
func (s *simInstance) setup() (time.Duration, error) {
	specs := s.specs(0)
	start := time.Now()
	for _, sp := range specs {
		if _, err := scenario.Build(sp); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (s *simInstance) warm() error {
	if s.warmup {
		s.exec(s.presets, 0)
	}
	return nil
}

// exec performs one op over specs on the given engine pool size
// (0 = GOMAXPROCS; inline preset ops ignore it) and checks its outputs.
func (s *simInstance) exec(specs []scenario.Spec, workers int) {
	if !s.matrix {
		res, err := scenario.Run(specs[0])
		s.observe(specs[0], res, err)
		return
	}
	ds, err := experiment.NewRunner(0, workers).ScenarioMatrix(specs)
	if err != nil {
		s.chk.fail("matrix: %v", err)
		return
	}
	for j, d := range ds {
		s.chk.observe(specs[j], d, nil)
	}
}

func (s *simInstance) observe(spec scenario.Spec, res *scenario.Result, err error) {
	var d scenario.Digest
	if err == nil {
		d = res.Digest()
	}
	s.chk.observe(spec, d, err)
}

// run collects each op's garbage after the op's span ends and before the
// next op starts, so no op inherits the heap goal its predecessor left
// behind: a large op's peak RSS then depends on its own GC cycles alone.
func (s *simInstance) run(from, n int) ([]span, error) {
	out := make([]span, n)
	for i := range out {
		specs := s.specs(from + i)
		out[i].start = time.Now()
		s.exec(specs, 0)
		out[i].end = time.Now()
		runtime.GC()
	}
	return out, nil
}

// layers re-runs the timed ops' scenarios traced, one at a time, to
// count their work. For the matrix it also times op 0's presets one at a
// time untraced — the engine's serial and critical-path figures — and
// the whole matrix on one worker.
func (s *simInstance) layers(n int, lat []float64) (*layerData, error) {
	ld := &layerData{workers: 1}
	traced := func(spec scenario.Spec) float64 {
		ctr := &eventCounter{}
		start := time.Now()
		res, err := scenario.RunTraced(spec, ctr)
		el := time.Since(start).Seconds()
		s.observe(spec, res, err)
		if err == nil {
			ld.counts.add(res, ctr)
		}
		return el
	}
	if !s.matrix {
		tr := make([]float64, n)
		for i := range tr {
			tr[i] = traced(s.specs(i)[0])
		}
		ld.counts.scale(1 / float64(n))
		ld.serial = Median(lat)
		ld.crit = ld.serial
		ld.overhead = Median(tr)/Median(lat) - 1
		return ld, nil
	}

	specs := s.specs(0)
	ld.workers = runtime.GOMAXPROCS(0)
	ld.extra = map[string]Value{}
	var untracedSum, tracedSum float64
	for _, sp := range specs {
		start := time.Now()
		res, err := scenario.Run(sp)
		el := time.Since(start).Seconds()
		s.observe(sp, res, err)
		ld.extra["experiment.preset."+sp.Name+"_s"] = Value{el, "s", 1}
		untracedSum += el
		ld.crit = max(ld.crit, el)
	}
	for _, sp := range specs {
		tracedSum += traced(sp)
	}
	ld.serial = untracedSum
	ld.overhead = tracedSum/untracedSum - 1

	start := time.Now()
	s.exec(specs, 1)
	one := time.Since(start).Seconds()
	for _, e := range []struct {
		workers int
		wall    float64
	}{{1, one}, {ld.workers, Median(lat)}} {
		bound := max(ld.serial/float64(e.workers), ld.crit)
		p := fmt.Sprintf("experiment.w%d.", e.workers)
		ld.extra[p+"wall_s"] = Value{e.wall, "s", 1}
		ld.extra[p+"bound_s"] = Value{bound, "s", 0}
		ld.extra[p+"speedup"] = Value{ld.serial / e.wall, "x", 0}
		ld.extra[p+"efficiency"] = Value{bound / e.wall, "ratio", 0}
	}
	return ld, nil
}
