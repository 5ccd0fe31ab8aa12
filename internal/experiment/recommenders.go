package experiment

// X9: recommendation attacks vs the deviation test (EXPERIMENTS.md). The
// sweep varies the number of dishonest recommenders k and runs two
// attack families, each under two arms — deviation test on (the
// reputation plane's default) and off (NoFilter, every vector accepted
// at face value):
//
//   - framing: k badmouthing recommenders gossip zero-trust vectors
//     about every honest node of a mobile population. The metric is the
//     framing rate — the fraction of honest nodes whose bootstrapped
//     trust at the victim (Eq. 6/7 over accepted recommendations) ends
//     below half the cold default.
//   - shielding: k ballot-stuffing recommenders that also lie as
//     responders vouch maximal trust for the spoofer and for each
//     other. The metrics are the shielding rate — attackers whose
//     bootstrapped standing at the victim ends above twice the cold
//     default — and whether (and how fast) the spoofer is still
//     convicted.
//
// Only the victim runs a detector, so the gossip channel carries the
// dishonest recommenders' voice undiluted — the hostile regime the
// deviation test exists for. The deltas are its value: with the test,
// dishonest recommenders lose recommendation trust after a handful of
// vectors and the MinMass floor silences what is left of their voice;
// without it, framing and shielding scale with k unchecked.

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// recommenderSweepID isolates the sweep's seed stream.
const recommenderSweepID = "recommender-sweep"

// RecommenderPoint aggregates one dishonest-recommender count of X9.
type RecommenderPoint struct {
	// Recommenders is the number of dishonest recommenders (the axis).
	Recommenders int
	// Trials per arm at this point.
	Trials int

	// Framing family (badmouthers), filter-on vs filter-off arms.
	FilterFramedFrac   float64 // framed honest nodes / honest nodes
	NoFilterFramedFrac float64
	FilterFlagged      int // recommenders the victim flagged dishonest
	FilterRejected     uint64

	// Shielding family (ballot-stuffing liars), filter-on vs filter-off.
	FilterShieldedFrac      float64 // shielded attackers / attackers
	NoFilterShieldedFrac    float64
	FilterSpooferDetected   int
	FilterMeanDelay         time.Duration
	NoFilterSpooferDetected int
	NoFilterMeanDelay       time.Duration
}

// recommenderSpec builds one trial's scenario. family is "frame" or
// "shield"; filter selects the deviation-test arm.
func recommenderSpec(seed int64, k int, family string, filter bool) scenario.Spec {
	spec := scenario.Spec{
		Name:       fmt.Sprintf("recommender-sweep-%s-%d", family, k),
		Seed:       seed,
		Nodes:      16,
		Duration:   scenario.Dur(210 * time.Second),
		Mobility:   scenario.MobilitySpec{Model: "waypoint", MaxSpeed: 2},
		Reputation: &scenario.ReputationSpec{Enabled: true, NoFilter: !filter},
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof", Node: 16, Mode: "phantom",
			At: scenario.Dur(45 * time.Second), Pin: true, DropCtrl: true,
		}},
	}
	kind := "badmouth"
	if family == "shield" {
		kind = "ballotstuff"
		spec.Liars = k // the stuffers double as lying responders
	}
	for i := 0; i < k; i++ {
		spec.Attacks = append(spec.Attacks, scenario.AttackSpec{
			Kind: kind, Node: 2 + i, At: scenario.Dur(45 * time.Second),
		})
	}
	return spec
}

// recommenderTrial is one reduced run.
type recommenderTrial struct {
	framed, honest     int
	shielded, suspects int
	flagged            int
	rejected           uint64
	spooferConvicted   bool
	delay              time.Duration
}

// runRecommenderTrial executes one (family, arm) run and reduces it.
func runRecommenderTrial(seed int64, k int, family string, filter bool) recommenderTrial {
	res, err := scenario.Run(recommenderSpec(seed, k, family, filter))
	if err != nil {
		// Specs are built above and validated in Run; an error here is a
		// programming bug, and the zero trial keeps the grid shape.
		return recommenderTrial{}
	}
	var out recommenderTrial
	if rep := res.Reputation; rep != nil {
		out.framed = rep.FramedHonest
		out.honest = rep.HonestCount
		out.shielded = rep.ShieldedSuspects
		out.suspects = rep.SuspectCount
		out.flagged = rep.Flagged
		out.rejected = rep.Rejected
	}
	for _, s := range res.Suspects {
		if s.Kind == "linkspoof" && s.ConvictedAt >= 0 && !s.FalsePositive {
			out.spooferConvicted = true
			out.delay = s.ConvictedAt - s.AttackAt
		}
	}
	return out
}

// RecommenderSweep fans the counts×trials×families×arms grid onto the
// pool and reduces it per recommender count. Seeds derive from the
// runner's root, so the sweep is bit-identical at any worker count.
func (r *Runner) RecommenderSweep(trials int, counts []int) []RecommenderPoint {
	if trials <= 0 || len(counts) == 0 {
		return nil
	}
	// Per task: family (frame/shield) × arm (filter/nofilter).
	const arms = 4
	results := mapTasks(r.workerCount(), len(counts)*trials*arms, func(task int) recommenderTrial {
		point := task / (trials * arms)
		trial := (task / arms) % trials
		family := "frame"
		if task%arms >= 2 {
			family = "shield"
		}
		filter := task%2 == 0
		seed := r.TaskSeed(recommenderSweepID, point, trial)
		return runRecommenderTrial(seed, counts[point], family, filter)
	})

	out := make([]RecommenderPoint, 0, len(counts))
	for pi, k := range counts {
		p := RecommenderPoint{Recommenders: k, Trials: trials}
		var filterFramed, filterHonest, noFilterFramed, noFilterHonest int
		var filterShielded, filterSuspects, noFilterShielded, noFilterSuspects int
		var filterDelay, noFilterDelay time.Duration
		for trial := 0; trial < trials; trial++ {
			base := (pi*trials + trial) * arms
			frameOn, frameOff := results[base], results[base+1]
			shieldOn, shieldOff := results[base+2], results[base+3]
			filterFramed += frameOn.framed
			filterHonest += frameOn.honest
			p.FilterFlagged += frameOn.flagged
			p.FilterRejected += frameOn.rejected
			noFilterFramed += frameOff.framed
			noFilterHonest += frameOff.honest
			filterShielded += shieldOn.shielded
			filterSuspects += shieldOn.suspects
			noFilterShielded += shieldOff.shielded
			noFilterSuspects += shieldOff.suspects
			if shieldOn.spooferConvicted {
				p.FilterSpooferDetected++
				filterDelay += shieldOn.delay
			}
			if shieldOff.spooferConvicted {
				p.NoFilterSpooferDetected++
				noFilterDelay += shieldOff.delay
			}
		}
		if filterHonest > 0 {
			p.FilterFramedFrac = float64(filterFramed) / float64(filterHonest)
		}
		if noFilterHonest > 0 {
			p.NoFilterFramedFrac = float64(noFilterFramed) / float64(noFilterHonest)
		}
		if filterSuspects > 0 {
			p.FilterShieldedFrac = float64(filterShielded) / float64(filterSuspects)
		}
		if noFilterSuspects > 0 {
			p.NoFilterShieldedFrac = float64(noFilterShielded) / float64(noFilterSuspects)
		}
		if p.FilterSpooferDetected > 0 {
			p.FilterMeanDelay = filterDelay / time.Duration(p.FilterSpooferDetected)
		}
		if p.NoFilterSpooferDetected > 0 {
			p.NoFilterMeanDelay = noFilterDelay / time.Duration(p.NoFilterSpooferDetected)
		}
		out = append(out, p)
	}
	return out
}
