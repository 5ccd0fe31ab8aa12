// Trustdynamics is a tour of the trust system API (paper §IV): direct
// trust establishment (Eq. 5), propagation through third parties (Eq. 6)
// and multiple recommenders (Eq. 7), the trust-weighted detection
// aggregate (Eq. 8), the confidence interval (Eq. 9), and the decision
// rule (Eq. 10) — then the two trust figures of §V in miniature.
//
//	go run ./examples/trustdynamics
package main

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/experiment"
	"repro/internal/trust"
)

func main() {
	params := trust.DefaultParams()
	store := trust.NewStore(params)
	liar, honest := addr.NodeAt(2), addr.NodeAt(3)

	// Eq. 5 — evidence-driven updates: harmful activity costs far more
	// than beneficial activity earns (the system's defensive asymmetry).
	store.Set(liar, 0.8)
	store.Set(honest, 0.8)
	fmt.Println("Eq. 5 — ten rounds of evidence from trust 0.80:")
	for i := 0; i < 10; i++ {
		store.Update(liar, []trust.Evidence{{Value: -1}})  // lies each round
		store.Update(honest, []trust.Evidence{{Value: 1}}) // helps each round
	}
	fmt.Printf("  liar:   0.800 -> %.3f\n", store.Get(liar))
	fmt.Printf("  honest: 0.800 -> %.3f\n\n", store.Get(honest))

	// Eq. 6 / Eq. 7 — propagated trust.
	fmt.Println("Eq. 6 — concatenated propagation (A trusts S 0.9, S trusts I 0.5):")
	fmt.Printf("  Tc = %.3f\n\n", trust.Concatenated(0.9, 0.5))
	fmt.Println("Eq. 7 — multipath propagation (three recommenders):")
	tm, _ := trust.Multipath([]trust.Recommendation{
		{R: 0.9, T: 0.2}, // a trusted recommender reporting distrust
		{R: 0.5, T: 0.8},
		{R: 0.1, T: 1.0}, // a distrusted flatterer barely counts
	})
	fmt.Printf("  Tm = %.3f\n\n", tm)

	// Eq. 8–10 — a miniature investigation.
	fmt.Println("Eq. 8-10 — an investigation with one liar among four responders:")
	obs := []trust.Observation{
		{Source: addr.NodeAt(2), Trust: store.Get(liar), Evidence: 1}, // the liar confirms the spoofed link
		{Source: addr.NodeAt(3), Trust: store.Get(honest), Evidence: -1},
		{Source: addr.NodeAt(4), Trust: 0.4, Evidence: -1},
		{Source: addr.NodeAt(5), Trust: 0.4, Evidence: 0}, // answer lost
	}
	d, _ := trust.Detect(obs)
	iv, _ := trust.ConfidenceInterval(trust.Samples(nil, obs), params.ConfidenceLevel)
	fmt.Printf("  Detect = %+.3f, 95%% CI ±%.3f -> verdict: %s\n\n",
		d, iv.Margin, trust.Decide(d, iv.Margin, params.Gamma))

	// Figures 1 and 2 in miniature (8 nodes, 12 rounds).
	cfg := experiment.DefaultConfig()
	cfg.Nodes = 8
	cfg.Liars = 2
	cfg.Rounds = 12
	eng := experiment.NewRunner(cfg.Seed, 0)
	fmt.Println(eng.Fig1(cfg).Table.Render())
	fmt.Println(eng.Fig2(cfg).Table.Render())
}
