package trust

import (
	"errors"
	"math"
)

// ErrNoSamples is returned when a confidence interval is requested over an
// empty sample.
var ErrNoSamples = errors.New("trust: no samples")

// ZForConfidence returns the two-sided standard-normal critical value z
// for a confidence level cl ∈ (0, 1): z = √2·erfinv(cl). For cl = 0.95
// this is ≈ 1.96.
func ZForConfidence(cl float64) float64 {
	if cl <= 0 {
		return 0
	}
	if cl >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(cl)
}

// Interval is a confidence interval around a detection value.
type Interval struct {
	Mean   float64 // sample mean (the Detect value when samples are T·e terms)
	Margin float64 // ε = z·σ/√n (Eq. 9)
	Level  float64 // the confidence level it was computed for
	N      int     // sample count
}

// Width returns the total interval width 2ε.
func (i Interval) Width() float64 { return 2 * i.Margin }

// ConfidenceInterval implements Eq. 9: given the sample of evidences
// gathered so far, estimate the range the full evidence population is
// likely to fall in, at confidence level cl. The margin of error is
//
//	ε = z · σ/√n
//
// with σ the sample standard deviation. A single sample has undefined
// spread; it yields an infinite margin (maximum uncertainty) rather than
// false confidence.
func ConfidenceInterval(samples []float64, cl float64) (Interval, error) {
	n := len(samples)
	if n == 0 {
		return Interval{}, ErrNoSamples
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n == 1 {
		return Interval{Mean: mean, Margin: math.Inf(1), Level: cl, N: n}, nil
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(n-1))
	margin := ZForConfidence(cl) * sigma / math.Sqrt(float64(n))
	return Interval{Mean: mean, Margin: margin, Level: cl, N: n}, nil
}

// Verdict is the outcome of the Eq. 10 decision rule.
type Verdict int

// Verdict values.
const (
	// Unrecognized: the confidence interval straddles the thresholds —
	// more evidence is needed.
	Unrecognized Verdict = iota
	// WellBehaving: even the pessimistic end of the interval clears γ.
	WellBehaving
	// Intruder: even the optimistic end of the interval is below −γ.
	Intruder
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case WellBehaving:
		return "well-behaving"
	case Intruder:
		return "intruder"
	default:
		return "unrecognized"
	}
}

// Decide implements Eq. 10 with detection value d, margin ci and
// threshold γ:
//
//	γ ≤ d − ci ≤ 1  ⇒ well-behaving
//	−1 ≤ d + ci ≤ −γ ⇒ intruder
//	otherwise        ⇒ unrecognized (gather more evidence)
func Decide(d, ci, gamma float64) Verdict {
	low := d - ci
	high := d + ci
	switch {
	case low >= gamma && low <= 1:
		return WellBehaving
	case high <= -gamma && high >= -1:
		return Intruder
	default:
		return Unrecognized
	}
}
