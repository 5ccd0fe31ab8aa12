// Package experiment reproduces the paper's evaluation (§V) and the
// extension experiments listed in DESIGN.md §4.
//
// Figures 1–3 follow the paper's setup directly: 16 nodes, one of which is
// attacked (the observer/investigator), one link-spoofing attacker, and a
// configurable number of colluding liars among the remaining nodes. Trust
// is initialized uniformly at random; each investigation round gathers one
// answer per responder (honest nodes deny the spoofed link, liars confirm
// it, and a small non-answer probability models the unreliable medium the
// paper emphasizes), aggregates them with Eq. 8, and feeds the outcome
// back into the trust store per Eq. 5.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trust"
)

// Config parameterizes the §V scenario.
type Config struct {
	Seed int64
	// Nodes is the population size including observer and attacker
	// (paper: 16).
	Nodes int
	// Liars is the number of colluding misbehaving responders (paper: 4,
	// labelled 26.3%).
	Liars int
	// Rounds is the number of investigation rounds (paper: 25).
	Rounds int
	// NonAnswerProb models answers lost to the unreliable medium; a lost
	// answer contributes evidence 0 (paper §III-B).
	NonAnswerProb float64
	// InitialTrustMin/Max bound the random initial trust values.
	InitialTrustMin, InitialTrustMax float64
	// Params are the trust-system constants.
	Params trust.Params
	// Trace, when non-nil, receives the run-trace events of the rounds
	// abstraction (DESIGN.md §13): trust updates and per-round detection
	// values, stamped with a synthetic clock of one second per round
	// (rounds scenarios have no scheduler). Pure observation, like the
	// packet plane's tracer: a traced figure regeneration is numerically
	// identical to an untraced one. Figure fan-outs share one sink across
	// parallel tasks, so traces are only byte-stable at -workers 1.
	Trace trace.Sink `json:"-"`
}

// DefaultConfig returns the paper's §V setup.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Nodes:           16,
		Liars:           4,
		Rounds:          25,
		NonAnswerProb:   0.1,
		InitialTrustMin: 0.05,
		InitialTrustMax: 0.95,
		Params:          trust.DefaultParams(),
	}
}

// Population is the instantiated §V scenario.
type Population struct {
	Observer   addr.Node
	Attacker   addr.Node
	Responders []addr.Node
	IsLiar     map[addr.Node]bool
	Store      *trust.Store
	Initial    map[addr.Node]float64
	rng        *rand.Rand
	cfg        Config
	// obs is per-round scratch, reused round after round: the
	// observations of the last round drawn.
	obs []trust.Observation

	// tracer is the run-trace emitter (nil = off); round drives its
	// synthetic clock — one second per investigation round.
	tracer *trace.Tracer
	round  int
}

// NewPopulation builds the scenario: node 1 observes, the last node
// attacks, the first cfg.Liars responders (chosen by shuffled order) lie.
func NewPopulation(cfg Config) *Population {
	if cfg.Nodes < 4 {
		cfg.Nodes = 4
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed)) //nolint:gosec // experiment
	p := &Population{
		Observer: addr.NodeAt(1),
		Attacker: addr.NodeAt(cfg.Nodes),
		IsLiar:   make(map[addr.Node]bool),
		Store:    trust.NewStore(cfg.Params),
		Initial:  make(map[addr.Node]float64),
		rng:      rng,
		cfg:      cfg,
	}
	p.tracer = trace.New(cfg.Trace, func() time.Duration {
		return time.Duration(p.round) * time.Second
	})
	if p.tracer.On() {
		observer := p.Observer.String()
		p.Store.SetOnUpdate(func(n addr.Node, old, now float64) {
			p.tracer.Emit(trace.Event{Plane: trace.PlaneTrust, Kind: trace.KindUpdate,
				Node: observer, Peer: n.String(), V0: old, V1: now})
		})
	}
	for i := 2; i < cfg.Nodes; i++ {
		p.Responders = append(p.Responders, addr.NodeAt(i))
	}
	// Random liar assignment.
	perm := rng.Perm(len(p.Responders))
	for i := 0; i < cfg.Liars && i < len(perm); i++ {
		p.IsLiar[p.Responders[perm[i]]] = true
	}
	// Random initial trust for every node (including the attacker), as in
	// the paper: "Initially, we randomly set the trust".
	span := cfg.InitialTrustMax - cfg.InitialTrustMin
	for _, n := range append(append([]addr.Node{}, p.Responders...), p.Attacker) {
		v := cfg.InitialTrustMin + rng.Float64()*span
		p.Store.Set(n, v)
		p.Initial[n] = v
	}
	return p
}

// Round runs one investigation round while the attack is active and
// returns the Eq. 8 detection value. Honest responders deny the spoofed
// link (e = −1), liars confirm it (e = +1), and lost answers contribute 0.
// The observer's own first-hand observation of the contradiction (trust 1,
// e = −1) is included per property 5 of §IV-A.
func (p *Population) Round() float64 {
	p.round++
	obs := p.draw(p.Store.Get)
	detect, ok := trust.Detect(obs)
	if !ok {
		return 0
	}
	// Feed the round's outcome back into the trust relations (§IV-B:
	// "this result is used to update the trust related to I and S1..Sm").
	if detect != 0 {
		for _, o := range obs {
			if o.Source == p.Observer || o.Evidence == 0 {
				continue
			}
			if (o.Evidence < 0) == (detect < 0) {
				p.Store.Update(o.Source, []trust.Evidence{{Value: 1}})
			} else {
				p.Store.Update(o.Source, []trust.Evidence{{Value: -1}})
			}
		}
		if detect < 0 {
			p.Store.Update(p.Attacker, []trust.Evidence{{Value: -1}})
		} else {
			p.Store.Update(p.Attacker, []trust.Evidence{{Value: 1}})
		}
	}
	if p.tracer.On() {
		// The rounds abstraction has no per-suspect verdict machinery;
		// the detection value itself is the round's verdict. Msg follows
		// the packet plane's convention so reprotrace stats counts a
		// negative (attack-confirming) round as a conviction signal.
		msg := "well-behaving"
		if detect < 0 {
			msg = "intruder"
		}
		p.tracer.Emit(trace.Event{Plane: trace.PlaneDetect, Kind: trace.KindVerdict,
			Node: p.Observer.String(), Peer: p.Attacker.String(), Msg: msg,
			V0: detect, V1: float64(p.round)})
	}
	return detect
}

// draw fills p.obs with one round's observations, as Round describes them,
// weighting each responder's answer by trustOf, and returns them.
func (p *Population) draw(trustOf func(addr.Node) float64) []trust.Observation {
	obs := append(p.obs[:0], trust.Observation{Source: p.Observer, Trust: 1, Evidence: -1})
	for _, r := range p.Responders {
		e := -1.0
		if p.IsLiar[r] {
			e = 1
		}
		if p.rng.Float64() < p.cfg.NonAnswerProb {
			e = 0
		}
		obs = append(obs, trust.Observation{Source: r, Trust: trustOf(r), Evidence: e})
	}
	p.obs = obs
	return obs
}

// seriesName labels a node's curve by role, node index and initial trust,
// e.g. "liar#12(0.82)". The index keeps names unique when two nodes share
// an initial value.
func (p *Population) seriesName(n addr.Node) string {
	role := "honest"
	switch {
	case n == p.Attacker:
		role = "attacker"
	case p.IsLiar[n]:
		role = "liar"
	}
	return fmt.Sprintf("%s#%d(%.2f)", role, n.Index(), p.Initial[n])
}

// trackedNodes returns all responders plus the attacker, sorted by
// descending initial trust so the rendered table reads like the figure's
// legend.
func (p *Population) trackedNodes() []addr.Node {
	nodes := append(append([]addr.Node{}, p.Responders...), p.Attacker)
	sort.Slice(nodes, func(i, j int) bool {
		if p.Initial[nodes[i]] != p.Initial[nodes[j]] {
			return p.Initial[nodes[i]] > p.Initial[nodes[j]]
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}

// Fig1Result carries the Figure 1 data plus the shape checks recorded in
// EXPERIMENTS.md.
type Fig1Result struct {
	Table *metrics.Table
	// LiarFinalMax is the highest final trust among liars (paper: near 0
	// regardless of initial value).
	LiarFinalMax float64
	// HonestMonotone reports whether every honest responder's trust was
	// non-decreasing.
	HonestMonotone bool
	// HonestLowGain is the final trust of the honest node with the lowest
	// initial trust (paper: "gains a little").
	HonestLowGain struct{ Initial, Final float64 }
}

// Fig1 reproduces Figure 1: trust evolution over Rounds investigation
// rounds, as seen by the attacked node, with attack and lying sustained.
// It runs as one engine task, executed inline. A single scenario is
// inherently sequential (each round feeds the trust store the next round
// reads), so it is never subdivided; parallelism comes from running it
// alongside other figure and sweep points (see Figures).
func (r *Runner) Fig1(cfg Config) *Fig1Result {
	p := NewPopulation(cfg)
	table := metrics.NewTable("Fig 1: Trustworthiness (attack sustained)", "round")
	tracked := p.trackedNodes()

	record := func() {
		for _, n := range tracked {
			table.Series(p.seriesName(n)).Append(p.Store.Get(n))
		}
	}
	record()
	for r := 0; r < cfg.Rounds; r++ {
		p.Round()
		record()
	}

	res := &Fig1Result{Table: table, HonestMonotone: true}
	lowInit := 2.0
	for _, n := range p.Responders {
		final := p.Store.Get(n)
		if p.IsLiar[n] {
			if final > res.LiarFinalMax {
				res.LiarFinalMax = final
			}
			continue
		}
		vals := table.Series(p.seriesName(n)).Values
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-12 {
				res.HonestMonotone = false
			}
		}
		if p.Initial[n] < lowInit {
			lowInit = p.Initial[n]
			res.HonestLowGain.Initial = p.Initial[n]
			res.HonestLowGain.Final = final
		}
	}
	return res
}

// Fig2Result carries the Figure 2 data plus its shape checks.
type Fig2Result struct {
	Table *metrics.Table
	// HighReachedDefault: nodes starting at or above the default end
	// within tolerance of it.
	HighReachedDefault bool
	// LowStillBelow: the node with the lowest initial trust has not yet
	// reached the default ("recovered slowly... may not reach").
	LowStillBelow bool
}

// Fig2 reproduces Figure 2: the attack ceases and no evidence arrives;
// every trust value relaxes toward the default (0.4) under the forgetting
// factor. Nodes with high or medium initial trust reach the default within
// the run; low-trust nodes recover slowly. It runs as one engine task,
// executed inline (see Fig1 for why a single scenario is not subdivided).
func (r *Runner) Fig2(cfg Config) *Fig2Result {
	p := NewPopulation(cfg)
	table := metrics.NewTable("Fig 2: Impact of the forgetting factor (attack ceased)", "round")
	tracked := p.trackedNodes()

	record := func() {
		for _, n := range tracked {
			table.Series(p.seriesName(n)).Append(p.Store.Get(n))
		}
	}
	record()
	for r := 0; r < cfg.Rounds; r++ {
		for _, n := range tracked {
			p.Store.Relax(n)
		}
		record()
	}

	def := cfg.Params.Default
	res := &Fig2Result{Table: table, HighReachedDefault: true, LowStillBelow: true}
	lowInit, lowFinal := 2.0, 0.0
	for _, n := range tracked {
		final := p.Store.Get(n)
		if p.Initial[n] >= def && final > def+0.06 {
			res.HighReachedDefault = false
		}
		if p.Initial[n] < lowInit {
			lowInit, lowFinal = p.Initial[n], final
		}
	}
	if lowInit < 0.15 && lowFinal >= def-0.005 {
		res.LowStillBelow = false
	}
	return res
}

// Fig3Result carries the Figure 3 data plus its shape checks.
type Fig3Result struct {
	Table *metrics.Table
	// RoundToMinus04 maps each series name to the first round whose
	// detection value is <= -0.4 (paper: <= 10 even at 43.2% liars).
	RoundToMinus04 map[string]int
	// Final maps each series name to the final detection value (paper:
	// converges near -0.8 regardless of liar fraction).
	Final map[string]float64
}

// DefaultLiarCounts returns the Figure 3 liar sweep used when neither
// the caller nor the scenario names one: 1, 4 and 7 liars, the closest
// counts out of 16 nodes to the paper's curves.
func DefaultLiarCounts() []int { return []int{1, 4, 7} }

// fig3Series runs one Figure 3 sweep point: the Fig-3 scenario with the
// given liar count, returning the per-round Eq. 8 detection values.
func fig3Series(cfg Config, liars int) []float64 {
	c := cfg
	c.Liars = liars
	p := NewPopulation(c)
	vals := make([]float64, 0, c.Rounds)
	for rd := 0; rd < c.Rounds; rd++ {
		vals = append(vals, p.Round())
	}
	return vals
}

// assembleFig3 reduces the per-liar-count series (in liarCounts order)
// into the figure table and its shape checks.
func assembleFig3(cfg Config, liarCounts []int, series [][]float64) *Fig3Result {
	table := metrics.NewTable("Fig 3: Impact of liars on the detection", "round")
	res := &Fig3Result{
		Table:          table,
		RoundToMinus04: make(map[string]int),
		Final:          make(map[string]float64),
	}
	for i, liars := range liarCounts {
		name := fmt.Sprintf("liars=%d(%.1f%%)", liars, 100*float64(liars)/float64(cfg.Nodes))
		s := table.Series(name)
		for _, v := range series[i] {
			s.Append(v)
		}
		res.RoundToMinus04[name] = s.FirstRoundBelow(-0.4)
		res.Final[name] = s.Last()
	}
	return res
}

// Fig3 reproduces Figure 3: the investigation's Eq. 8 detection value
// per round, for several liar counts. The paper labels its curves with
// percentages; the closest integer counts out of 16 nodes are used and
// both are printed. The liar counts fan out as independent engine tasks —
// each count is one sweep point with its own Population — and the table
// is assembled in liarCounts order, so the result is identical at any
// worker count.
func (r *Runner) Fig3(cfg Config, liarCounts []int) *Fig3Result {
	series := mapTasks(r.workerCount(), len(liarCounts), func(i int) []float64 {
		return fig3Series(cfg, liarCounts[i])
	})
	return assembleFig3(cfg, liarCounts, series)
}

// FiguresResult bundles one run of all three figure reproductions.
type FiguresResult struct {
	Fig1 *Fig1Result
	Fig2 *Fig2Result
	Fig3 *Fig3Result
}

// Figures regenerates Figures 1–3 in one fan-out: the two single-scenario
// figures and every Figure 3 liar count become sibling tasks on one flat
// pool, so `trustlab -figure all` fills all cores instead of running the
// figures back to back. Fig3 sub-results land at fixed task indices and
// are assembled in liarCounts order afterwards. Cancellation is
// cooperative: undispatched figure tasks are abandoned once ctx is done.
// A single figure task is milliseconds of arithmetic, so cancellation is
// checked between tasks rather than inside them.
func (r *Runner) Figures(ctx context.Context, cfg Config, liarCounts []int) (*FiguresResult, error) {
	res := &FiguresResult{}
	fig3Vals := make([][]float64, len(liarCounts))
	err := r.ForEachContext(ctx, 2+len(liarCounts), func(i int) {
		switch i {
		case 0:
			res.Fig1 = r.Fig1(cfg)
		case 1:
			res.Fig2 = r.Fig2(cfg)
		default:
			fig3Vals[i-2] = fig3Series(cfg, liarCounts[i-2])
		}
	})
	if err != nil {
		return nil, err
	}
	res.Fig3 = assembleFig3(cfg, liarCounts, fig3Vals)
	return res, nil
}
