package trust

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestZForConfidence(t *testing.T) {
	tests := []struct{ cl, want float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758},
	}
	for _, tt := range tests {
		if got := ZForConfidence(tt.cl); math.Abs(got-tt.want) > 5e-4 {
			t.Errorf("Z(%v) = %v, want %v", tt.cl, got, tt.want)
		}
	}
	if got := ZForConfidence(0); got != 0 {
		t.Errorf("Z(0) = %v", got)
	}
	if got := ZForConfidence(1); !math.IsInf(got, 1) {
		t.Errorf("Z(1) = %v, want +Inf", got)
	}
}

func TestConfidenceIntervalKnownSample(t *testing.T) {
	// Sample {−1, −1, 1, 1}: mean 0, sample std = sqrt(4/3) ≈ 1.1547,
	// ε(95%) = 1.96·1.1547/2 ≈ 1.1316.
	iv, err := ConfidenceInterval([]float64{-1, -1, 1, 1}, 0.95)
	if err != nil {
		t.Fatalf("ConfidenceInterval: %v", err)
	}
	if math.Abs(iv.Mean) > 1e-12 {
		t.Errorf("mean = %v", iv.Mean)
	}
	if math.Abs(iv.Margin-1.1316) > 5e-3 {
		t.Errorf("margin = %v, want ≈1.1316", iv.Margin)
	}
	if iv.N != 4 || iv.Level != 0.95 {
		t.Errorf("meta = %+v", iv)
	}
	if math.Abs(iv.Width()-2*iv.Margin) > 1e-12 {
		t.Error("Width inconsistent")
	}
}

func TestConfidenceIntervalEdgeCases(t *testing.T) {
	if _, err := ConfidenceInterval(nil, 0.95); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty sample error = %v", err)
	}
	iv, err := ConfidenceInterval([]float64{0.3}, 0.95)
	if err != nil {
		t.Fatalf("single sample: %v", err)
	}
	if !math.IsInf(iv.Margin, 1) {
		t.Errorf("single-sample margin = %v, want +Inf", iv.Margin)
	}
	// Identical samples: zero spread, zero margin.
	iv, _ = ConfidenceInterval([]float64{-1, -1, -1, -1}, 0.95)
	if iv.Margin != 0 || iv.Mean != -1 {
		t.Errorf("constant sample interval = %+v", iv)
	}
}

func TestConfidenceIntervalShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]float64, 0, 400)
	var prev float64 = math.Inf(1)
	for _, n := range []int{10, 40, 160} {
		for len(base) < n {
			base = append(base, rng.NormFloat64())
		}
		iv, err := ConfidenceInterval(base, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Margin >= prev {
			t.Errorf("margin did not shrink at n=%d: %v >= %v", n, iv.Margin, prev)
		}
		prev = iv.Margin
	}
}

func TestConfidenceIntervalWidensWithLevel(t *testing.T) {
	samples := []float64{-1, 0, 1, -1, 1, 0, -1}
	var prev float64 = -1
	for _, cl := range []float64{0.80, 0.90, 0.95, 0.99} {
		iv, err := ConfidenceInterval(samples, cl)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Margin <= prev {
			t.Errorf("margin not increasing at cl=%v: %v <= %v", cl, iv.Margin, prev)
		}
		prev = iv.Margin
	}
}

func TestDecide(t *testing.T) {
	const gamma = 0.6
	tests := []struct {
		name  string
		d, ci float64
		want  Verdict
	}{
		{"clear intruder", -0.9, 0.1, Intruder},
		{"boundary intruder", -0.7, 0.1, Intruder}, // high = -0.6 = -γ
		{"clear honest", 0.9, 0.1, WellBehaving},
		{"boundary honest", 0.7, 0.1, WellBehaving},
		{"uncertain middle", 0.0, 0.1, Unrecognized},
		{"negative but wide interval", -0.9, 0.5, Unrecognized},
		{"positive but wide interval", 0.9, 0.5, Unrecognized},
		{"infinite margin", -1, math.Inf(1), Unrecognized},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Decide(tt.d, tt.ci, gamma); got != tt.want {
				t.Errorf("Decide(%v, %v) = %v, want %v", tt.d, tt.ci, got, tt.want)
			}
		})
	}
}

func TestVerdictString(t *testing.T) {
	if WellBehaving.String() != "well-behaving" || Intruder.String() != "intruder" ||
		Unrecognized.String() != "unrecognized" {
		t.Error("Verdict strings wrong")
	}
}

func TestDecideConsistentWithInterval(t *testing.T) {
	// Glue property: a unanimous hostile sample must yield an Intruder
	// verdict once enough samples are in.
	samples := []float64{-1, -1, -1, -1, -1, -0.9, -1, -0.95}
	iv, err := ConfidenceInterval(samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decide(iv.Mean, iv.Margin, 0.6); got != Intruder {
		t.Errorf("verdict = %v (interval %+v)", got, iv)
	}
}
