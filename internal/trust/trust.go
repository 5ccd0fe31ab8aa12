// Package trust implements the paper's trust system (§IV): per-node
// trust establishment from weighted evidence (Eq. 5), trust propagation
// through third parties (Eq. 6) and multiple recommenders (Eq. 7), the
// trust-weighted detection aggregate (Eq. 8), the confidence interval on
// that aggregate (Eq. 9), and the three-way decision rule (Eq. 10). The
// paper calls its trust entropy-based after Sun et al. [11], but Eq. 5 is
// a linear update and nothing here derives trust from entropy.
//
// Trust values live in [0, 1] with a configurable default (the paper's
// figures use 0.4); evidence values live in [-1, 1] with -1 = harmful
// (lying, spoofing) and +1 = beneficial (correct relaying, confirmed
// answers).
package trust

import (
	"math"
	"slices"

	"repro/internal/addr"
)

// Params are the trust-system constants. The paper does not publish its
// α/β values; DefaultParams is calibrated so the shapes of Figures 1–3
// hold (see DESIGN.md §2 and the ablation benches).
type Params struct {
	// AlphaPos weights beneficial evidence (paper: the "reputability"
	// weighting factor α for e > 0). Small: trust is hard to earn.
	AlphaPos float64
	// AlphaNeg weights harmful evidence (the "gravity" factor for e < 0).
	// Larger than AlphaPos: the system is defensive — misconduct costs
	// much more than good conduct earns (Fig. 1).
	AlphaNeg float64
	// Beta is the forgetting factor β of Eq. 5: how much of the previous
	// trust survives a time slot. With AlphaPos = (1−Beta)·T_max the
	// equilibrium of sustained good behavior is full trust, keeping honest
	// trust monotone ascending (Fig. 1).
	Beta float64
	// RelaxBeta is the memory factor of the evidence-free relaxation step
	// (Fig. 2). The paper uses a single β; the two figures' time scales
	// require different rates here (see DESIGN.md §5), so the relaxation
	// rate is its own parameter.
	RelaxBeta float64
	// Default is the initial/default trust assigned to unknown nodes and
	// the value evidence-free trust relaxes toward (Fig. 2 shows recovery
	// to 0.4).
	Default float64
	// Gamma is the decision threshold γ of Eq. 10.
	Gamma float64
	// ConfidenceLevel is the cl parameter of the confidence interval
	// (Eq. 9), e.g. 0.95.
	ConfidenceLevel float64
	// Min and Max clamp the trust range.
	Min, Max float64
}

// DefaultParams returns the calibrated defaults used by the experiments.
func DefaultParams() Params {
	return Params{
		AlphaPos:        0.01,
		AlphaNeg:        0.12,
		Beta:            0.99,
		RelaxBeta:       0.9,
		Default:         0.4,
		Gamma:           0.6,
		ConfidenceLevel: 0.95,
		Min:             0,
		Max:             1,
	}
}

// Gravity classifies how serious an evidence item is. It scales the α
// weighting factor, implementing properties 2–3 of §IV-A (degree of
// gravity, and the imminence of an intrusion drastically decreasing
// trustworthiness) — the per-class weighting the paper lists as its first
// item of future work (§VII).
type Gravity int

// Gravity classes, mildest first.
const (
	// GravityDefault is an ordinary second-hand observation (α × 1).
	GravityDefault Gravity = iota
	// GravityLow halves the weight — e.g. circumstantial corroboration.
	GravityLow
	// GravityHigh doubles the weight — e.g. a first-hand contradiction
	// observed in the node's own log.
	GravityHigh
	// GravityCritical quadruples the weight — an imminent intrusion, such
	// as advertising a node outside the known membership (property 3).
	GravityCritical
)

// factor returns the α multiplier for the class.
func (g Gravity) factor() float64 {
	switch g {
	case GravityLow:
		return 0.5
	case GravityHigh:
		return 2
	case GravityCritical:
		return 4
	default:
		return 1
	}
}

// String implements fmt.Stringer.
func (g Gravity) String() string {
	switch g {
	case GravityLow:
		return "low"
	case GravityHigh:
		return "high"
	case GravityCritical:
		return "critical"
	default:
		return "default"
	}
}

// Evidence is one observed activity of a node within a time slot.
type Evidence struct {
	// Value is e_j in [-1, 1]: positive for beneficial activity, negative
	// for harmful activity.
	Value float64
	// Weight overrides the α_j weighting factor when > 0; otherwise
	// AlphaPos/AlphaNeg is used according to the sign of Value, letting
	// callers express per-evidence gravity (property 2 of §IV-A).
	Weight float64
	// Gravity scales the effective weight by its class factor (ignored
	// when Weight overrides α explicitly).
	Gravity Gravity
}

func (p Params) clamp(v float64) float64 {
	return math.Max(p.Min, math.Min(p.Max, v))
}

// Trust-slot states, stored one byte per dense slot (see Store).
const (
	slotAbsent    uint8 = iota // no explicit value: Get returns the default
	slotFirstHand              // explicit value backed by own evidence
	slotSeeded                 // explicit value seeded from propagated opinion
)

// Store holds the trust relations one node maintains about others.
//
// Values live in a struct-of-arrays layout keyed by the run's dense
// node index rather than a map: vals[slot] is the trust value and
// state[slot] distinguishes absent / first-hand / gossip-seeded. Every
// hot operation (Get, Update, Relax) is array indexing. The seeded mark
// clears the moment first-hand evidence arrives — see SetSeeded.
type Store struct {
	params Params
	// ix maps addresses to slots. It may be shared run-wide (every
	// store of a run keys the same slot space, NewStoreIndexed) or
	// owned privately (NewStore); either way assignment order is
	// deterministic because the simulation is single-threaded.
	ix    *addr.Index
	vals  []float64
	state []uint8
	known int // slots with state != slotAbsent
	// onUpdate, when set, observes every Eq. 5 update (the run-trace
	// plane hooks here). Nil-guarded on the hot path: an unhooked store
	// pays one branch and the alloc ceilings are untouched.
	onUpdate func(n addr.Node, old, now float64)
}

// SetOnUpdate installs an observer for Eq. 5 updates: it receives the
// subject, the trust before the update, and the clamped value after.
// Observation only — the hook must not call back into the store.
func (s *Store) SetOnUpdate(fn func(n addr.Node, old, now float64)) { s.onUpdate = fn }

// NewStore creates a store with the given parameters and a private
// node index.
func NewStore(p Params) *Store {
	return NewStoreIndexed(p, addr.NewIndex(0))
}

// NewStoreIndexed creates a store keyed on a shared run-scoped index,
// so that every store of a run uses one slot space and one
// address-to-slot mapping.
func NewStoreIndexed(p Params, ix *addr.Index) *Store {
	s := &Store{params: p, ix: ix}
	s.grow(ix.Len())
	return s
}

// Index returns the store's node index (shared or private).
func (s *Store) Index() *addr.Index { return s.ix }

// grow ensures the slabs cover slots 0..n-1.
func (s *Store) grow(n int) {
	if n <= len(s.vals) {
		return
	}
	s.vals = slices.Grow(s.vals, n-len(s.vals))[:n]
	s.state = slices.Grow(s.state, n-len(s.state))[:n]
}

// slot returns n's dense slot, assigning one on first write access.
func (s *Store) slot(n addr.Node) int {
	sl := s.ix.Assign(n)
	s.grow(s.ix.Len())
	return sl
}

// Params returns the store's parameters.
func (s *Store) Params() Params { return s.params }

// Get returns the trust in n, or the default for unknown nodes.
//
//repro:allocfree
func (s *Store) Get(n addr.Node) float64 {
	if sl, ok := s.ix.Slot(n); ok && sl < len(s.state) && s.state[sl] != slotAbsent {
		return s.vals[sl]
	}
	return s.params.Default
}

// setState writes value and state for n's slot, keeping the known
// count in step.
func (s *Store) setState(n addr.Node, v float64, st uint8) {
	sl := s.slot(n)
	if s.state[sl] == slotAbsent {
		s.known++
	}
	s.vals[sl] = v
	s.state[sl] = st
}

// Set assigns an explicit trust value (clamped), e.g. the random initial
// trust of the paper's experiments. The value counts as first-hand.
func (s *Store) Set(n addr.Node, v float64) {
	s.setState(n, s.params.clamp(v), slotFirstHand)
}

// SetSeeded assigns a trust value derived from propagated (second-hand)
// opinion — the Eq. 6/7 bootstrap. The value behaves like any other for
// reads and Eq. 5 evolution, but FirstHand reports false until the
// node's own evidence confirms it (Update clears the mark). The
// distinction is what keeps the reputation plane from eating its own
// output: a deviation test anchored on a gossip-seeded value would
// reject honest gossip that disagrees with the original rumor, and a
// gossiped vector containing seeded values would launder second-hand
// opinion as first-hand testimony.
func (s *Store) SetSeeded(n addr.Node, v float64) {
	s.setState(n, s.params.clamp(v), slotSeeded)
}

// FirstHand reports whether n has an explicit trust value backed by the
// node's own evidence (not merely a propagated-trust seed).
func (s *Store) FirstHand(n addr.Node) bool {
	sl, ok := s.ix.Slot(n)
	return ok && sl < len(s.state) && s.state[sl] == slotFirstHand
}

// Update applies Eq. 5 for one time slot:
//
//	T(A,I)_Δt = Σ_j α_j·e_j + β·T(A,I)_Δ(t−1)
//
// and returns the new (clamped) trust.
//
//repro:allocfree
func (s *Store) Update(n addr.Node, evidence []Evidence) float64 {
	sum := 0.0
	for _, ev := range evidence {
		w := ev.Weight
		if w <= 0 {
			if ev.Value >= 0 {
				w = s.params.AlphaPos
			} else {
				w = s.params.AlphaNeg
			}
			w *= ev.Gravity.factor()
		}
		sum += w * ev.Value
	}
	old := s.Get(n)
	v := s.params.clamp(sum + s.params.Beta*old)
	// First-hand evidence arrived: the relationship is no longer a mere
	// propagated seed (the seed still shaped the prior through Get, as
	// intended — it just stops masquerading as our own observation).
	s.setState(n, v, slotFirstHand)
	if s.onUpdate != nil {
		s.onUpdate(n, old, v)
	}
	return v
}

// Relax applies the evidence-free step of one time slot: trust decays
// toward the default at rate 1−RelaxBeta,
//
//	T ← β·T + (1−β)·T_default,
//
// reproducing both directions of the paper's Fig. 2 (high-trust nodes fall
// back to the default; formerly distrusted nodes recover slowly — "a long
// misconduct-less duration before trusting a former liar").
func (s *Store) Relax(n addr.Node) float64 {
	p := s.params
	beta := p.RelaxBeta
	if beta <= 0 {
		beta = p.Beta
	}
	v := p.clamp(beta*s.Get(n) + (1-beta)*p.Default)
	sl := s.slot(n)
	if s.state[sl] == slotAbsent {
		s.known++
		s.state[sl] = slotFirstHand
	}
	// Relaxation keeps the provenance mark: decaying a seeded value
	// does not make it first-hand.
	s.vals[sl] = v
	return v
}

// Nodes returns the nodes with explicit trust values, sorted.
func (s *Store) Nodes() []addr.Node {
	return s.NodesInto(make([]addr.Node, 0, s.known))
}

// NodesInto appends the nodes with explicit trust values to out in
// ascending address order and returns the extended slice — the
// allocation-free variant of Nodes, mirroring Medium.NeighborsInto.
//
//repro:allocfree
func (s *Store) NodesInto(out []addr.Node) []addr.Node {
	start := len(out)
	for sl, st := range s.state {
		if st != slotAbsent {
			out = append(out, s.ix.At(sl))
		}
	}
	// Slot order is first-touch order: the build-time membership is
	// already ascending, but late strays (phantoms, tunnel mouths) may
	// not be — sort to keep the documented order.
	slices.Sort(out[start:])
	return out
}

// Concatenated implements Eq. 6: A trusts I through third party S as
// Tc = R(A,S) · T(S,I), where r is how much A trusts S's recommendations
// and t is S's reported trust in I.
func Concatenated(r, t float64) float64 { return r * t }

// Recommendation is one (recommender trust, reported trust) pair for
// multipath propagation.
type Recommendation struct {
	// R is how much the evaluator trusts the recommender's recommendations.
	R float64
	// T is the trust the recommender reports about the subject.
	T float64
}

// Multipath implements Eq. 7: beliefs from several recommenders are
// combined with weights w_i = 1/Σ_j R_j. The boolean is false when the
// recommendations carry no usable weight (ΣR ≤ 0).
func Multipath(recs []Recommendation) (float64, bool) {
	var sumR float64
	for _, r := range recs {
		sumR += r.R
	}
	if sumR <= 0 {
		return 0, false
	}
	var v float64
	for _, r := range recs {
		v += r.R * r.T / sumR
	}
	return v, true
}

// Observation is one second-hand answer gathered during an investigation:
// the responder, the trust the investigator places in it, and its evidence
// e ∈ {−1, 0, +1} (−1 = "the advertised link is wrong", +1 = "the link is
// correct", 0 = no answer before the timeout).
type Observation struct {
	Source   addr.Node
	Trust    float64
	Evidence float64
	// Weight scales this observation's share of Eq. 8 beyond its trust:
	// the evidence plane (DESIGN.md §8) boosts testimony whose cited log
	// records carried verified inclusion proofs against a gossiped tree
	// head. Zero means 1 — plain, unproven testimony — so callers unaware
	// of proofs are unaffected.
	Weight float64
}

// EffTrust is the observation's effective trust share: Trust scaled by
// the proof weight (zero Weight means unscaled). It is THE definition
// of how Weight folds into the aggregation — Detect (Eq. 8) and the
// confidence-interval sampling in Samples (Eq. 9) must use the same
// rule or the detection value and its interval silently diverge.
func (o Observation) EffTrust() float64 {
	if o.Weight > 0 {
		return o.Trust * o.Weight
	}
	return o.Trust
}

// Samples appends one round's Eq. 9 samples to dst and returns the
// extended slice: each observation's EffTrust·e divided by the round's
// mean effective trust, so the samples' mean is the round's Detect value.
// It is the one sample rule of the detector's interval and of X3 and X4b.
func Samples(dst []float64, obs []Observation) []float64 {
	var sumT float64
	for _, o := range obs {
		sumT += o.EffTrust()
	}
	meanT := sumT / float64(len(obs))
	for _, o := range obs {
		dst = append(dst, o.EffTrust()*o.Evidence/meanT)
	}
	return dst
}

// historyLen bounds a sample history (History): old samples age out,
// matching the freshness property 4 of §IV-A.
const historyLen = 256

// History appends one round's samples (Samples) to a history kept across
// rounds and keeps its newest historyLen samples, oldest first. This is
// §IV-C's "gather more evidence" loop: an interval too wide to decide
// narrows by 1/√n as rounds add samples. The trim shifts in place, so a
// full history keeps its backing array.
func History(hist []float64, obs []Observation) []float64 {
	hist = Samples(hist, obs)
	if len(hist) > historyLen {
		hist = hist[:copy(hist, hist[len(hist)-historyLen:])]
	}
	return hist
}

// Detect implements Eq. 8: the trust-weighted aggregation of second-hand
// evidence,
//
//	Detect(A,I) = Σ_i w_i · T(A,S_i) · e_i,  w_i = 1/Σ_j T(A,S_j)
//
// with T scaled by each observation's proof weight (Observation.Weight).
// The result lies in [−1, 1]; values near −1 indicate a link spoofing
// attack carried by I. The boolean is false when no responder carries any
// trust (ΣT ≤ 0).
func Detect(obs []Observation) (float64, bool) {
	var sumT float64
	for _, o := range obs {
		sumT += o.EffTrust()
	}
	if sumT <= 0 {
		return 0, false
	}
	var v float64
	for _, o := range obs {
		v += o.EffTrust() * o.Evidence / sumT
	}
	return v, true
}
