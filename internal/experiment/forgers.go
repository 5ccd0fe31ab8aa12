package experiment

// X8: detection vs log-forger fraction (EXPERIMENTS.md). The sweep runs
// the phantom-spoofer scenario with k log-forging responders shielding
// the spoofer, twice per point: once on the evidence plane (sealed logs,
// tree-head gossip, proof-verified replies — the forgers are catchable)
// and once with the same k responders as plain liars on the plain plane
// (the paper's §V adversary — lies are only diluted by trust). The
// deltas are the value of tamper evidence: forgers are convicted almost
// immediately, and the spoofer's conviction survives collusion fractions
// that degrade the plain plane.

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// forgerSweepID isolates the sweep's seed stream.
const forgerSweepID = "forger-sweep"

// ForgerPoint aggregates one forger-count of the X8 sweep.
type ForgerPoint struct {
	// Forgers is the number of shielding responders (the collusion axis).
	Forgers int
	// Trials per arm at this point.
	Trials int

	// The evidence-plane arm: forging responders.
	SpooferDetected int           // trials where the spoofer was convicted
	MeanDelay       time.Duration // mean conviction delay past attack start
	ForgersCaught   int           // forgers convicted, out of Forgers×Trials

	// The plain arm: the same responders as classic liars, no evidence
	// plane.
	LiarArmDetected  int
	LiarArmMeanDelay time.Duration
}

// forgerSpec builds one trial's scenario: the phantom link spoofer of
// the linkspoof preset plus k shielding responders — log forgers on the
// evidence plane, plain liars otherwise.
func forgerSpec(seed int64, k int, evidence bool) scenario.Spec {
	spec := scenario.Spec{
		Name:     fmt.Sprintf("forger-sweep-%d", k),
		Seed:     seed,
		Nodes:    16,
		Duration: scenario.Dur(210 * time.Second),
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof", Node: 16, Mode: "phantom",
			At: scenario.Dur(45 * time.Second), Pin: true, DropCtrl: true,
		}},
	}
	if evidence {
		spec.Evidence = &scenario.EvidenceSpec{Enabled: true}
		for i := 0; i < k; i++ {
			spec.Attacks = append(spec.Attacks, scenario.AttackSpec{
				Kind: "logforge", Node: 2 + i, At: scenario.Dur(45 * time.Second),
			})
		}
	} else {
		spec.Liars = k // nodes 2..k+1 answer falsely about every attacker
	}
	return spec
}

// ForgerSweep fans the counts×trials×2-arm grid onto the pool and
// reduces it per forger count. Seeds derive from the runner's root, so
// the sweep is bit-identical at any worker count.
func (r *Runner) ForgerSweep(trials int, counts []int) []ForgerPoint {
	if trials <= 0 || len(counts) == 0 {
		return nil
	}
	// Per (point, trial): the evidence arm, then the plain arm.
	specs := make([]scenario.Spec, 0, len(counts)*trials*2)
	for point, k := range counts {
		for trial := 0; trial < trials; trial++ {
			seed := r.TaskSeed(forgerSweepID, point, trial)
			specs = append(specs, forgerSpec(seed, k, true), forgerSpec(seed, k, false))
		}
	}
	results := r.sweepResults(specs)

	out := make([]ForgerPoint, 0, len(counts))
	for pi, k := range counts {
		p := ForgerPoint{Forgers: k, Trials: trials}
		var evTotal, liarTotal time.Duration
		for trial := 0; trial < trials; trial++ {
			ev := results[(pi*trials+trial)*2]
			liar := results[(pi*trials+trial)*2+1]
			if delay, ok := spooferConviction(ev); ok {
				p.SpooferDetected++
				evTotal += delay
			}
			for _, s := range ev.Suspects {
				if s.Kind == "logforge" && s.ConvictedAt >= 0 {
					p.ForgersCaught++
				}
			}
			if delay, ok := spooferConviction(liar); ok {
				p.LiarArmDetected++
				liarTotal += delay
			}
		}
		if p.SpooferDetected > 0 {
			p.MeanDelay = evTotal / time.Duration(p.SpooferDetected)
		}
		if p.LiarArmDetected > 0 {
			p.LiarArmMeanDelay = liarTotal / time.Duration(p.LiarArmDetected)
		}
		out = append(out, p)
	}
	return out
}
