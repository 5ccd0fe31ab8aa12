package trust

// Property tests for the trust algebra: the propagation operators
// (Eq. 6/7) and the detection aggregate (Eq. 8) have range, monotonicity
// and symmetry obligations the reputation plane now leans on — a
// bootstrapped trust outside [0,1], or an aggregate that depends on the
// order recommendations arrived in, would silently corrupt every
// downstream decision.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
)

const propertyTrials = 2000

// TestConcatenatedMonotoneAndBounded pins Eq. 6: R·T is monotone
// non-decreasing in both arguments and maps [0,1]² into [0,1].
func TestConcatenatedMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < propertyTrials; i++ {
		r1, t1 := rng.Float64(), rng.Float64()
		r2, t2 := r1+rng.Float64()*(1-r1), t1+rng.Float64()*(1-t1) // r2 >= r1, t2 >= t1
		v1, v2 := Concatenated(r1, t1), Concatenated(r2, t2)
		if v1 < 0 || v1 > 1 {
			t.Fatalf("Concatenated(%v,%v) = %v outside [0,1]", r1, t1, v1)
		}
		if v2 < v1 {
			t.Fatalf("monotonicity violated: C(%v,%v)=%v > C(%v,%v)=%v", r1, t1, v1, r2, t2, v2)
		}
		if Concatenated(r1, t2) < v1 || Concatenated(r2, t1) < v1 {
			t.Fatal("monotonicity violated in a single argument")
		}
	}
}

// TestMultipathRangeAndPermutation pins Eq. 7: the combination of
// recommendations with trusts in [0,1] stays within the convex hull of
// the reported values (hence within [0,1]), and is invariant — to float
// tolerance — under permutation of the recommenders.
func TestMultipathRangeAndPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < propertyTrials; i++ {
		n := 1 + rng.Intn(8)
		recs := make([]Recommendation, n)
		lo, hi := 1.0, 0.0
		for j := range recs {
			recs[j] = Recommendation{R: rng.Float64(), T: rng.Float64()}
			lo, hi = math.Min(lo, recs[j].T), math.Max(hi, recs[j].T)
		}
		v, ok := Multipath(recs)
		if !ok {
			continue // all-zero recommendation mass
		}
		const eps = 1e-9
		if v < lo-eps || v > hi+eps {
			t.Fatalf("Multipath(%+v) = %v outside the hull [%v,%v]", recs, v, lo, hi)
		}
		shuffled := make([]Recommendation, n)
		copy(shuffled, recs)
		rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		v2, ok2 := Multipath(shuffled)
		if !ok2 || math.Abs(v-v2) > 1e-12 {
			t.Fatalf("permutation changed Eq. 7: %v vs %v", v, v2)
		}
	}
}

// TestDetectRangeAndPermutation pins Eq. 8: with evidence in [-1,1] the
// aggregate stays in [-1,1] and does not depend on observation order.
func TestDetectRangeAndPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evidences := []float64{-1, 0, 1}
	for i := 0; i < propertyTrials; i++ {
		n := 1 + rng.Intn(10)
		obs := make([]Observation, n)
		for j := range obs {
			obs[j] = Observation{
				Source:   addr.NodeAt(j + 1),
				Trust:    rng.Float64(),
				Evidence: evidences[rng.Intn(len(evidences))],
			}
			if rng.Intn(3) == 0 {
				obs[j].Weight = 0.5 + 2*rng.Float64() // proof-weighted testimony
			}
		}
		v, ok := Detect(obs)
		if !ok {
			continue
		}
		const eps = 1e-9
		if v < -1-eps || v > 1+eps {
			t.Fatalf("Detect(%+v) = %v outside [-1,1]", obs, v)
		}
		shuffled := make([]Observation, n)
		copy(shuffled, obs)
		rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		v2, ok2 := Detect(shuffled)
		if !ok2 || math.Abs(v-v2) > 1e-12 {
			t.Fatalf("permutation changed Eq. 8: %v vs %v", v, v2)
		}
	}
}

// TestEffTrustFoldsConsistently pins the one-definition rule between
// Eq. 8 and the Eq. 9 interval sampling (Samples): the samples are the
// per-observation terms EffTrust·e/meanT, so their mean must
// reproduce the round's Detect value exactly — otherwise the detection
// value and its own confidence interval quietly measure different
// statistics.
func TestEffTrustFoldsConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	evidences := []float64{-1, 0, 1}
	for i := 0; i < propertyTrials; i++ {
		n := 1 + rng.Intn(10)
		obs := make([]Observation, n)
		for j := range obs {
			obs[j] = Observation{
				Source:   addr.NodeAt(j + 1),
				Trust:    rng.Float64(),
				Evidence: evidences[rng.Intn(len(evidences))],
			}
			if rng.Intn(2) == 0 {
				obs[j].Weight = 0.5 + 2*rng.Float64()
			}
		}
		v, ok := Detect(obs)
		if !ok {
			continue
		}
		prefix := []float64{7}
		samples := Samples(prefix, obs)
		if len(samples) != 1+n || samples[0] != 7 {
			t.Fatalf("Samples(%v, %d observations) = %v, want the prefix and one sample each", prefix, n, samples)
		}
		var mean float64
		for _, x := range samples[1:] {
			mean += x
		}
		mean /= float64(n)
		if math.Abs(mean-v) > 1e-9 {
			t.Fatalf("Eq. 9 sample mean %v != Eq. 8 value %v for %+v", mean, v, obs)
		}
	}
}

// TestEffTrustZeroWeightIsIdentity pins the compatibility contract: a
// zero Weight means "plain testimony", so EffTrust must equal Trust —
// callers unaware of the evidence plane see pre-plane arithmetic.
func TestEffTrustZeroWeightIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < propertyTrials; i++ {
		tr := rng.Float64()
		o := Observation{Trust: tr}
		if o.EffTrust() != tr {
			t.Fatalf("EffTrust with zero weight = %v, want %v", o.EffTrust(), tr)
		}
		w := rng.Float64() * 3
		o.Weight = w
		if math.Abs(o.EffTrust()-tr*w) > 1e-15 {
			t.Fatalf("EffTrust = %v, want %v", o.EffTrust(), tr*w)
		}
	}
}

// TestHistoryWindow pins the sample history behind §IV-C's "gather more
// evidence" loop: over many rounds it holds the newest historyLen samples
// of every round's Samples, oldest first, and from its first trim on it
// trims in place without moving to a new backing array.
func TestHistoryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const perRound = 15
	var hist, all []float64
	var full *float64 // hist's backing array since its first trim
	for round := 0; round < 100; round++ {
		obs := make([]Observation, perRound)
		for j := range obs {
			obs[j] = Observation{Source: addr.NodeAt(j + 1), Trust: 0.1 + rng.Float64(), Evidence: -1}
		}
		hist = History(hist, obs)
		all = Samples(all, obs)

		want := all[max(0, len(all)-historyLen):]
		if !slices.Equal(hist, want) {
			t.Fatalf("round %d: history of %d samples is not the newest %d of %d",
				round, len(hist), len(want), len(all))
		}
		if len(all) <= historyLen {
			continue
		}
		if full == nil {
			full = &hist[0]
		} else if &hist[0] != full {
			t.Fatalf("round %d: full history moved to a new backing array", round)
		}
	}
}
