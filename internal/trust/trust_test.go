package trust

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestStoreDefaults(t *testing.T) {
	s := NewStore(DefaultParams())
	n := addr.NodeAt(1)
	if len(s.Nodes()) != 0 {
		t.Error("fresh store knows a node")
	}
	if got := s.Get(n); got != 0.4 {
		t.Errorf("default trust = %v, want 0.4", got)
	}
	if len(s.Nodes()) != 0 {
		t.Error("Get of an unknown node made it known")
	}
	s.Set(n, 0.7)
	if nodes := s.Nodes(); len(nodes) != 1 || nodes[0] != n || s.Get(n) != 0.7 {
		t.Errorf("after Set: nodes=%v get=%v", nodes, s.Get(n))
	}
}

func TestSetClamps(t *testing.T) {
	s := NewStore(DefaultParams())
	s.Set(addr.NodeAt(1), 1.5)
	if got := s.Get(addr.NodeAt(1)); got != 1 {
		t.Errorf("clamped high = %v", got)
	}
	s.Set(addr.NodeAt(1), -0.5)
	if got := s.Get(addr.NodeAt(1)); got != 0 {
		t.Errorf("clamped low = %v", got)
	}
}

func TestUpdateSigns(t *testing.T) {
	s := NewStore(DefaultParams())
	n := addr.NodeAt(1)
	s.Set(n, 0.5)
	after := s.Update(n, []Evidence{{Value: -1}})
	if after >= 0.5 {
		t.Errorf("harmful evidence did not decrease trust: %v", after)
	}
	s.Set(n, 0.5)
	afterPos := s.Update(n, []Evidence{{Value: 1}})
	if afterPos <= 0.475 { // beta*0.5 + alphaPos = 0.495; must exceed decay-only
		t.Errorf("beneficial evidence did not help: %v", afterPos)
	}
}

func TestUpdateIsEq5(t *testing.T) {
	p := DefaultParams()
	s := NewStore(p)
	n := addr.NodeAt(1)
	s.Set(n, 0.5)
	got := s.Update(n, []Evidence{{Value: -1}, {Value: 1}, {Value: -0.5, Weight: 0.2}})
	want := p.AlphaNeg*(-1) + p.AlphaPos*1 + 0.2*(-0.5) + p.Beta*0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Update = %v, want %v", got, want)
	}
}

func TestDefensiveAsymmetry(t *testing.T) {
	// Gravity outweighs reputability: one bad action costs more than one
	// good action earns (properties 1-2, and the "defensive nature"
	// observed in Fig. 1).
	p := DefaultParams()
	s := NewStore(p)
	a, b := addr.NodeAt(1), addr.NodeAt(2)
	s.Set(a, 0.5)
	s.Set(b, 0.5)
	down := 0.5 - s.Update(a, []Evidence{{Value: -1}})
	up := s.Update(b, []Evidence{{Value: 1}}) - 0.5
	if down <= up {
		t.Errorf("harm %v should exceed gain %v", down, up)
	}
}

func TestLiarDecaysRegardlessOfInitialTrust(t *testing.T) {
	// Fig. 1's headline property: a liar's trust collapses no matter how
	// trusted it started out.
	for _, initial := range []float64{0.95, 0.7, 0.4, 0.1} {
		s := NewStore(DefaultParams())
		n := addr.NodeAt(1)
		s.Set(n, initial)
		for round := 0; round < 25; round++ {
			s.Update(n, []Evidence{{Value: -1}})
		}
		if got := s.Get(n); got > 0.05 {
			t.Errorf("initial %v: liar trust after 25 rounds = %v, want near 0", initial, got)
		}
	}
}

func TestHonestLowTrustGainsSlowly(t *testing.T) {
	// Fig. 1: honest nodes with low initial trust "gain a little" over 25
	// rounds — they must improve but not leap to full trust.
	s := NewStore(DefaultParams())
	n := addr.NodeAt(1)
	s.Set(n, 0.1)
	for round := 0; round < 25; round++ {
		s.Update(n, []Evidence{{Value: 1}})
	}
	got := s.Get(n)
	if got <= 0.1 {
		t.Errorf("honest node never gained: %v", got)
	}
	if got > 0.45 {
		t.Errorf("honest node gained too fast (%v); trust must be hard to earn", got)
	}
}

func TestUpdateNeverLeavesRange(t *testing.T) {
	p := DefaultParams()
	f := func(initial float64, evs []int8) bool {
		s := NewStore(p)
		n := addr.NodeAt(1)
		s.Set(n, math.Abs(math.Mod(initial, 1)))
		for _, e := range evs {
			v := s.Update(n, []Evidence{{Value: float64(e%2) - 0.5}})
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelaxConvergesToDefault(t *testing.T) {
	p := DefaultParams()
	for _, initial := range []float64{0.0, 0.2, 0.4, 0.8, 1.0} {
		s := NewStore(p)
		n := addr.NodeAt(1)
		s.Set(n, initial)
		prev := initial
		for round := 0; round < 200; round++ {
			v := s.Relax(n)
			// Monotone approach, no overshoot.
			if initial > p.Default && (v > prev || v < p.Default-1e-12) {
				t.Fatalf("initial %v: overshoot/backtrack at round %d: %v -> %v", initial, round, prev, v)
			}
			if initial < p.Default && (v < prev || v > p.Default+1e-12) {
				t.Fatalf("initial %v: overshoot/backtrack at round %d: %v -> %v", initial, round, prev, v)
			}
			prev = v
		}
		if math.Abs(s.Get(n)-p.Default) > 0.01 {
			t.Errorf("initial %v: relaxed to %v, want ~%v", initial, s.Get(n), p.Default)
		}
	}
}

func TestRelaxRecoveryIsSlowFromLow(t *testing.T) {
	// Fig. 2: a former liar (trust ~0) has not reached the default after
	// 25 rounds, while a node at 0.5 has nearly converged.
	p := DefaultParams()
	s := NewStore(p)
	liar, mid := addr.NodeAt(1), addr.NodeAt(2)
	s.Set(liar, 0.0)
	s.Set(mid, 0.5)
	for round := 0; round < 25; round++ {
		s.Relax(liar)
		s.Relax(mid)
	}
	if got := s.Get(liar); got > 0.395 {
		t.Errorf("former liar fully recovered (%v); Fig. 2 requires it to still lag the default", got)
	}
	if got := s.Get(mid); math.Abs(got-p.Default) > 0.05 {
		t.Errorf("mid-trust node should have converged: %v", got)
	}
}

func TestNodesAndSnapshot(t *testing.T) {
	s := NewStore(DefaultParams())
	s.Set(addr.NodeAt(3), 0.3)
	s.Set(addr.NodeAt(1), 0.1)
	nodes := s.Nodes()
	if len(nodes) != 2 || nodes[0] != addr.NodeAt(1) || nodes[1] != addr.NodeAt(3) {
		t.Errorf("Nodes = %v", nodes)
	}
	// The list is a snapshot: later writes and edits of it are separate.
	s.Set(addr.NodeAt(2), 0.2)
	nodes[0] = addr.NodeAt(9)
	if got := s.Nodes(); len(got) != 3 || got[0] != addr.NodeAt(1) || got[2] != addr.NodeAt(3) {
		t.Errorf("Nodes after a write and an edit of an earlier list = %v", got)
	}
	if len(nodes) != 2 {
		t.Errorf("an earlier Nodes list grew to %v", nodes)
	}
}

func TestConcatenated(t *testing.T) {
	if got := Concatenated(0.5, 0.8); got != 0.4 {
		t.Errorf("Concatenated = %v", got)
	}
	// Propagated trust can never exceed either link (for values in [0,1]).
	f := func(r, tr float64) bool {
		r = math.Abs(math.Mod(r, 1))
		tr = math.Abs(math.Mod(tr, 1))
		c := Concatenated(r, tr)
		return c <= r+1e-12 && c <= tr+1e-12 && c >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultipath(t *testing.T) {
	// Equal recommenders: plain average of reported trusts.
	v, ok := Multipath([]Recommendation{{R: 0.5, T: 0.8}, {R: 0.5, T: 0.4}})
	if !ok || math.Abs(v-(0.5*0.8+0.5*0.4)/1.0) > 1e-12 {
		t.Errorf("Multipath = %v, %v", v, ok)
	}
	// A highly trusted recommender dominates.
	v, _ = Multipath([]Recommendation{{R: 0.9, T: 1}, {R: 0.1, T: 0}})
	if v <= 0.8 {
		t.Errorf("dominant recommender ignored: %v", v)
	}
	// Degenerate: no weight.
	if _, ok := Multipath(nil); ok {
		t.Error("empty recommendations reported ok")
	}
	if _, ok := Multipath([]Recommendation{{R: 0, T: 1}}); ok {
		t.Error("zero-weight recommendations reported ok")
	}
}

func TestMultipathBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		recs := make([]Recommendation, 1+rng.Intn(6))
		for j := range recs {
			recs[j] = Recommendation{R: rng.Float64(), T: rng.Float64()}
		}
		v, ok := Multipath(recs)
		if !ok {
			continue
		}
		if v < 0 || v > 1+1e-12 {
			t.Fatalf("Multipath out of range: %v (recs %+v)", v, recs)
		}
	}
}

func TestDetectUnanimous(t *testing.T) {
	// All honest responders denying the link drive Detect to exactly -1.
	obs := []Observation{
		{Source: addr.NodeAt(1), Trust: 0.8, Evidence: -1},
		{Source: addr.NodeAt(2), Trust: 0.3, Evidence: -1},
		{Source: addr.NodeAt(3), Trust: 0.5, Evidence: -1},
	}
	v, ok := Detect(obs)
	if !ok || math.Abs(v-(-1)) > 1e-12 {
		t.Errorf("Detect = %v, %v; want -1", v, ok)
	}
	// And all confirming: +1.
	for i := range obs {
		obs[i].Evidence = 1
	}
	v, _ = Detect(obs)
	if math.Abs(v-1) > 1e-12 {
		t.Errorf("Detect = %v, want 1", v)
	}
}

func TestDetectNonAnswersDilute(t *testing.T) {
	// A non-answering node (e=0) still appears in the normalization,
	// pulling the aggregate toward 0 — partial evidence is weaker
	// evidence.
	full, _ := Detect([]Observation{
		{Trust: 0.5, Evidence: -1}, {Trust: 0.5, Evidence: -1},
	})
	diluted, _ := Detect([]Observation{
		{Trust: 0.5, Evidence: -1}, {Trust: 0.5, Evidence: 0},
	})
	if !(diluted > full) {
		t.Errorf("non-answer did not dilute: full=%v diluted=%v", full, diluted)
	}
}

func TestDetectTrustWeighting(t *testing.T) {
	// A distrusted liar confirming the link barely moves the result.
	v, _ := Detect([]Observation{
		{Trust: 0.9, Evidence: -1}, // honest denial
		{Trust: 0.05, Evidence: 1}, // distrusted liar confirmation
	})
	if v > -0.8 {
		t.Errorf("liar with near-zero trust still influential: %v", v)
	}
	// The same liar at high trust would drag the result toward zero.
	v2, _ := Detect([]Observation{
		{Trust: 0.9, Evidence: -1},
		{Trust: 0.9, Evidence: 1},
	})
	if math.Abs(v2) > 1e-12 {
		t.Errorf("balanced opposing evidence should cancel: %v", v2)
	}
}

func TestDetectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		obs := make([]Observation, 1+rng.Intn(8))
		for j := range obs {
			obs[j] = Observation{
				Trust:    rng.Float64(),
				Evidence: float64(rng.Intn(3) - 1),
			}
		}
		v, ok := Detect(obs)
		if !ok {
			continue
		}
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("Detect out of [-1,1]: %v", v)
		}
	}
}

func TestDetectNoTrust(t *testing.T) {
	if _, ok := Detect(nil); ok {
		t.Error("empty observations reported ok")
	}
	if _, ok := Detect([]Observation{{Trust: 0, Evidence: -1}}); ok {
		t.Error("zero-trust observations reported ok")
	}
}

func TestSeededProvenance(t *testing.T) {
	s := NewStore(DefaultParams())
	n := addr.NodeAt(5)
	if s.FirstHand(n) {
		t.Fatal("unknown node reported first-hand")
	}
	s.SetSeeded(n, 0.8)
	if nodes := s.Nodes(); len(nodes) != 1 || nodes[0] != n || s.Get(n) != 0.8 {
		t.Fatalf("seeded value not readable: nodes=%v get=%v", nodes, s.Get(n))
	}
	if s.FirstHand(n) {
		t.Fatal("a propagated seed reported first-hand")
	}
	// Own evidence upgrades the relationship.
	s.Update(n, []Evidence{{Value: 1}})
	if !s.FirstHand(n) {
		t.Fatal("Update did not clear the seed mark")
	}
	// Explicit Set is authoritative; Relax keeps the seed mark.
	s.SetSeeded(n, 0.2)
	s.Set(n, 0.6)
	if !s.FirstHand(n) {
		t.Fatal("Set did not clear the seed mark")
	}
	s.SetSeeded(n, 0.2)
	s.Relax(n)
	if s.FirstHand(n) {
		t.Fatal("Relax made a seeded value first-hand")
	}
}
