package experiment

import (
	"math/rand"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/trust"
)

// X3: confidence-interval behaviour (§IV-C). The paper motivates the
// confidence interval but does not plot it; this sweep records how the
// margin ε and the unrecognized-zone occupancy respond to the number of
// evidences, their spread, and the configured confidence level.

// CIPoint is one row of the confidence-interval sweep, averaged over many
// independent evidence draws.
type CIPoint struct {
	Level    float64
	N        int
	LiarFrac float64
	// Margin is the mean ε across trials.
	Margin float64
	// UnrecognizedFrac is the fraction of trials whose Eq. 10 verdict was
	// unrecognized (the "need more evidence" zone of §IV-C).
	UnrecognizedFrac float64
	// MeanDetect is the mean Eq. 8 value across trials.
	MeanDetect float64
}

// ciTrials is the number of evidence draws averaged per sweep point.
const ciTrials = 50

// ciSweepID tags X3 task seeds in the DeriveSeed tree.
const ciSweepID = "x3-ci"

// ciTrialResult is one evidence draw's contribution to a sweep point.
type ciTrialResult struct {
	margin, detect float64
	unrecognized   bool
	valid          bool
}

// ciTrial performs one synthetic evidence draw: honest deny (-1), liars
// confirm (+1), uniform trusts.
func ciTrial(rng *rand.Rand, cl float64, n int, liarFrac float64) ciTrialResult {
	obs := make([]trust.Observation, 0, n)
	for i := 0; i < n; i++ {
		e := -1.0
		if rng.Float64() < liarFrac {
			e = 1
		}
		obs = append(obs, trust.Observation{Trust: 0.2 + 0.6*rng.Float64(), Evidence: e})
	}
	detectVal, ok := trust.Detect(obs)
	if !ok {
		return ciTrialResult{}
	}
	iv, err := trust.ConfidenceInterval(trust.Samples(make([]float64, 0, n), obs), cl)
	if err != nil {
		return ciTrialResult{}
	}
	return ciTrialResult{
		margin:       iv.Margin,
		detect:       detectVal,
		unrecognized: trust.Decide(detectVal, iv.Margin, trust.DefaultParams().Gamma) == trust.Unrecognized,
		valid:        true,
	}
}

// CISweep samples investigation populations with the given liar fraction
// and returns the mean margin and unrecognized-zone occupancy per
// (confidence level, sample size). It fans the full (point × trial) grid
// onto the pool: every (confidence level, sample size) pair is a sweep
// point, every evidence draw within it an independent trial seeded by
// TaskSeed, and the trial contributions are reduced into per-point means
// in index order.
func (r *Runner) CISweep(levels []float64, sizes []int, liarFrac float64) []CIPoint {
	type point struct {
		cl float64
		n  int
	}
	var pts []point
	for _, cl := range levels {
		for _, n := range sizes {
			pts = append(pts, point{cl, n})
		}
	}

	trials := mapTasks(r.workerCount(), len(pts)*ciTrials, func(task int) ciTrialResult {
		pi, trial := task/ciTrials, task%ciTrials
		rng := rand.New(rand.NewSource(r.TaskSeed(ciSweepID, pi, trial))) //nolint:gosec // experiment
		return ciTrial(rng, pts[pi].cl, pts[pi].n, liarFrac)
	})

	out := make([]CIPoint, 0, len(pts))
	for pi, pt := range pts {
		var sumMargin, sumDetect float64
		unrecognized := 0
		for trial := 0; trial < ciTrials; trial++ {
			tr := trials[pi*ciTrials+trial]
			if !tr.valid {
				continue
			}
			sumMargin += tr.margin
			sumDetect += tr.detect
			if tr.unrecognized {
				unrecognized++
			}
		}
		out = append(out, CIPoint{
			Level:            pt.cl,
			N:                pt.n,
			LiarFrac:         liarFrac,
			Margin:           sumMargin / ciTrials,
			UnrecognizedFrac: float64(unrecognized) / ciTrials,
			MeanDetect:       sumDetect / ciTrials,
		})
	}
	return out
}

// X4b: ablation of the cumulative confidence interval. DESIGN.md §5
// resolves §IV-C's "interval too wide → gather more evidence" loop by
// keeping a sample history across rounds (trust.History), as the detector
// does; this ablation compares the first round at which Eq. 10 convicts
// under that history versus an interval over one round's samples.

// CIAccumulationResult reports the conviction round under each policy
// (-1 = never within cfg.Rounds).
type CIAccumulationResult struct {
	CumulativeRound int
	SingleRound     int
}

// CIAccumulationAblation replays the Fig-3 evidence stream and decides
// each round with both interval policies, on the observations Round
// aggregated. It runs as one engine task, executed inline: the two
// policies share one evidence stream round by round, so the scenario
// cannot be split without replaying it.
func (r *Runner) CIAccumulationAblation(cfg Config) CIAccumulationResult {
	res := CIAccumulationResult{CumulativeRound: -1, SingleRound: -1}
	p := NewPopulation(cfg)
	var single, hist []float64
	convicts := func(detectVal float64, samples []float64) bool {
		iv, err := trust.ConfidenceInterval(samples, cfg.Params.ConfidenceLevel)
		return err == nil && trust.Decide(detectVal, iv.Margin, cfg.Params.Gamma) == trust.Intruder
	}
	for r := 0; r < cfg.Rounds; r++ {
		detectVal := p.Round()
		single = trust.Samples(single[:0], p.obs)
		hist = trust.History(hist, p.obs)
		if res.SingleRound < 0 && convicts(detectVal, single) {
			res.SingleRound = r
		}
		if res.CumulativeRound < 0 && convicts(detectVal, hist) {
			res.CumulativeRound = r
		}
	}
	return res
}

// X4: ablation of the Eq. 8 trust weighting. The same Fig-3 scenario run
// with uniform weights shows what the trust system buys: without it, the
// detection value stays pinned near the raw honest/liar ratio and never
// converges toward −1.

// AblationResult compares trust-weighted and unweighted detection.
type AblationResult struct {
	Table *metrics.Table
	// FinalWeighted and FinalUniform are the last-round detection values.
	FinalWeighted, FinalUniform float64
}

// Ablation runs the Fig-3 scenario twice: once with Eq. 8 as published
// and once with all responder trusts frozen at 1 (uniform weights, no
// learning). The two arms run as sibling engine tasks. Both build their
// own Population from the same config (same seed, hence the same liar
// placement and loss draws), so they are independent and can run
// concurrently.
func (r *Runner) Ablation(cfg Config) *AblationResult {
	arms := mapTasks(r.workerCount(), 2, func(i int) []float64 {
		if i == 0 {
			// The real system, Eq. 8 with learned weights: the Fig-3 series
			// at the config's own liar count.
			return fig3Series(cfg, cfg.Liars)
		}
		return ablationUniformArm(cfg)
	})

	table := metrics.NewTable("X4: Trust weighting ablation", "round")
	weighted := table.Series("trust-weighted")
	for _, v := range arms[0] {
		weighted.Append(v)
	}
	uniform := table.Series("uniform-weights")
	for _, v := range arms[1] {
		uniform.Append(v)
	}
	return &AblationResult{
		Table:         table,
		FinalWeighted: weighted.Last(),
		FinalUniform:  uniform.Last(),
	}
}

// ablationUniformArm replays the identical evidence stream with trusts
// pinned to 1 and no feedback applied.
func ablationUniformArm(cfg Config) []float64 {
	q := NewPopulation(cfg)
	unit := func(addr.Node) float64 { return 1 }
	vals := make([]float64, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		v, _ := trust.Detect(q.draw(unit))
		vals = append(vals, v)
	}
	return vals
}
