package experiment

import (
	"fmt"
	"math/rand"

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
// confirm (+1), uniform trusts. Scratch comes from the worker's arena —
// nothing drawn here outlives the trial.
func ciTrial(rng *rand.Rand, a *Arena, cl float64, n int, liarFrac float64) ciTrialResult {
	obs := a.Observations(n)
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
	var sumT float64
	for _, o := range obs {
		sumT += o.Trust
	}
	meanT := sumT / float64(n)
	samples := a.Samples(n)
	for _, o := range obs {
		samples = append(samples, o.Trust*o.Evidence/meanT)
	}
	iv, err := trust.ConfidenceInterval(samples, cl)
	if err != nil {
		return ciTrialResult{}
	}
	return ciTrialResult{
		margin:       iv.Margin,
		detect:       detectVal,
		unrecognized: trust.Decide(detectVal, iv.Margin, 0.6) == trust.Unrecognized,
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

	trials := mapTasks(r.workerCount(), len(pts)*ciTrials, func(task int, a *Arena) ciTrialResult {
		pi, trial := task/ciTrials, task%ciTrials
		rng := rand.New(rand.NewSource(r.TaskSeed(ciSweepID, pi, trial))) //nolint:gosec // experiment
		return ciTrial(rng, a, pts[pi].cl, pts[pi].n, liarFrac)
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

// CISweepTable renders the sweep as a table: one series per confidence
// level, x = sample-size index.
func CISweepTable(points []CIPoint) *metrics.Table {
	t := metrics.NewTable("X3: Confidence-interval margin vs evidence count", "sizeIdx")
	for _, p := range points {
		t.Series(fmt.Sprintf("cl=%.2f", p.Level)).Append(p.Margin)
	}
	return t
}

// X4b: ablation of the cumulative confidence interval. DESIGN.md §5
// resolves §IV-C's "interval too wide → gather more evidence" loop by
// accumulating Eq. 9 samples across rounds; this ablation compares the
// first round at which Eq. 10 convicts under cumulative versus
// single-round intervals.

// CIAccumulationResult reports the conviction round under each policy
// (-1 = never within cfg.Rounds).
type CIAccumulationResult struct {
	CumulativeRound int
	SingleRound     int
}

// CIAccumulationAblation replays the Fig-3 evidence stream and decides
// each round with both interval policies. It runs as one engine task,
// executed inline: the two policies share one evidence stream round by
// round, so the scenario cannot be split without replaying it.
func (r *Runner) CIAccumulationAblation(cfg Config) CIAccumulationResult {
	res := CIAccumulationResult{CumulativeRound: -1, SingleRound: -1}
	p := NewPopulation(cfg)
	var hist []float64
	for r := 0; r < cfg.Rounds; r++ {
		// Reconstruct this round's observations exactly as Round does,
		// then apply Round's trust feedback by calling it — but we need
		// the observations, so inline the sampling with the same RNG
		// stream via a fresh draw: simplest is to recompute from a twin
		// population advanced in lockstep.
		detectVal := p.Round()
		// The samples are the trust-weighted evidences; Round does not
		// expose them, so approximate with the aggregate value repeated
		// per responder — spread comes from the liar/honest split, which
		// the sign pattern preserves.
		roundSamples := p.arena.Samples(len(p.Responders))
		for _, resp := range p.Responders {
			e := -1.0
			if p.IsLiar[resp] {
				e = 1
			}
			roundSamples = append(roundSamples, p.Store.Get(resp)*e/0.5)
		}
		hist = append(hist, roundSamples...)

		if res.SingleRound < 0 {
			if iv, err := trust.ConfidenceInterval(roundSamples, cfg.Params.ConfidenceLevel); err == nil {
				if trust.Decide(detectVal, iv.Margin, cfg.Params.Gamma) == trust.Intruder {
					res.SingleRound = r
				}
			}
		}
		if res.CumulativeRound < 0 {
			if iv, err := trust.ConfidenceInterval(hist, cfg.Params.ConfidenceLevel); err == nil {
				if trust.Decide(detectVal, iv.Margin, cfg.Params.Gamma) == trust.Intruder {
					res.CumulativeRound = r
				}
			}
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
	arms := mapTasks(r.workerCount(), 2, func(i int, _ *Arena) []float64 {
		if i == 0 {
			return ablationWeightedArm(cfg)
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

// ablationWeightedArm runs the real system: Eq. 8 with learned weights.
func ablationWeightedArm(cfg Config) []float64 {
	p := NewPopulation(cfg)
	vals := make([]float64, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		vals = append(vals, p.Round())
	}
	return vals
}

// ablationUniformArm replays the identical evidence stream with trusts
// pinned to 1 and no feedback applied.
func ablationUniformArm(cfg Config) []float64 {
	q := NewPopulation(cfg)
	vals := make([]float64, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		obs := q.arena.Observations(len(q.Responders) + 1)
		obs = append(obs, trust.Observation{Source: q.Observer, Trust: 1, Evidence: -1})
		for _, resp := range q.Responders {
			e := -1.0
			if q.IsLiar[resp] {
				e = 1
			}
			if q.rng.Float64() < q.cfg.NonAnswerProb {
				e = 0
			}
			obs = append(obs, trust.Observation{Source: resp, Trust: 1, Evidence: e})
		}
		v, _ := trust.Detect(obs)
		vals = append(vals, v)
	}
	return vals
}
