package experiment

import (
	"strings"
	"testing"

	"repro/internal/trust"
)

func TestPopulationSetup(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPopulation(cfg)
	if len(p.Responders) != 14 {
		t.Fatalf("responders = %d, want 14 (16 nodes minus observer and attacker)", len(p.Responders))
	}
	liars := 0
	for _, r := range p.Responders {
		if p.IsLiar[r] {
			liars++
		}
	}
	if liars != 4 {
		t.Fatalf("liars = %d, want 4", liars)
	}
	for _, r := range p.Responders {
		v := p.Store.Get(r)
		if v < cfg.InitialTrustMin || v > cfg.InitialTrustMax {
			t.Errorf("initial trust %v outside configured range", v)
		}
	}
	if p.IsLiar[p.Observer] || p.IsLiar[p.Attacker] {
		t.Error("observer or attacker marked as liar")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := NewPopulation(DefaultConfig())
	b := NewPopulation(DefaultConfig())
	for _, r := range a.Responders {
		if a.Store.Get(r) != b.Store.Get(r) || a.IsLiar[r] != b.IsLiar[r] {
			t.Fatal("same seed produced different populations")
		}
	}
	da, db := a.Round(), b.Round()
	if da != db {
		t.Fatalf("round diverged: %v vs %v", da, db)
	}
}

func TestFig1Shape(t *testing.T) {
	// The three published Fig-1 properties, checked across seeds.
	for _, seed := range []int64{1, 2, 3, 7} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		res := NewRunner(cfg.Seed, 0).Fig1(cfg)

		// (a) Liar trust collapses regardless of its initial value.
		if res.LiarFinalMax > 0.1 {
			t.Errorf("seed %d: liar final trust %v, want near 0", seed, res.LiarFinalMax)
		}
		// (b) Honest trust is (monotonously) ascending.
		if !res.HonestMonotone {
			t.Errorf("seed %d: honest trust not monotone ascending", seed)
		}
		// (c) The lowest-initial honest node gains, but only a little.
		g := res.HonestLowGain
		if g.Final <= g.Initial {
			t.Errorf("seed %d: low-trust honest node never gained (%v -> %v)", seed, g.Initial, g.Final)
		}
		if g.Final > g.Initial+0.35 {
			t.Errorf("seed %d: low-trust honest node gained too much (%v -> %v)", seed, g.Initial, g.Final)
		}
	}
}

func TestFig1AttackerCollapses(t *testing.T) {
	cfg := DefaultConfig()
	res := NewRunner(cfg.Seed, 0).Fig1(cfg)
	// The attacker's curve is in the table and must end near zero.
	for _, name := range res.Table.Names() {
		if !strings.HasPrefix(name, "attacker") {
			continue
		}
		if last := res.Table.Series(name).Last(); last > 0.1 {
			t.Errorf("attacker trust ends at %v", last)
		}
		return
	}
	t.Fatal("attacker series missing")
}

func TestFig2Shape(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		res := NewRunner(cfg.Seed, 0).Fig2(cfg)
		if !res.HighReachedDefault {
			t.Errorf("seed %d: high/medium-initial nodes did not reach the default", seed)
		}
	}
	// With a forced low initial value, recovery must stay incomplete.
	cfg := DefaultConfig()
	cfg.InitialTrustMin = 0.0
	cfg.InitialTrustMax = 0.05
	res := NewRunner(cfg.Seed, 0).Fig2(cfg)
	if !res.LowStillBelow {
		t.Error("low-initial nodes fully recovered within 25 rounds; Fig. 2 requires slow recovery")
	}
}

func TestFig2MonotoneTowardDefault(t *testing.T) {
	cfg := DefaultConfig()
	res := NewRunner(cfg.Seed, 0).Fig2(cfg)
	def := cfg.Params.Default
	for _, name := range res.Table.Names() {
		vals := res.Table.Series(name).Values
		for i := 1; i < len(vals); i++ {
			dPrev := vals[i-1] - def
			dCur := vals[i] - def
			if dPrev*dCur < -1e-12 {
				t.Fatalf("series %s overshot the default: %v -> %v", name, vals[i-1], vals[i])
			}
			if abs(dCur) > abs(dPrev)+1e-12 {
				t.Fatalf("series %s moved away from the default: %v -> %v", name, vals[i-1], vals[i])
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	cfg := DefaultConfig()
	res := NewRunner(cfg.Seed, 0).Fig3(cfg, []int{1, 4, 7})

	for name, round := range res.RoundToMinus04 {
		// Paper: "after 10 rounds, the result of the investigation falls
		// down to −0.4 even when liars represent 43.2% of the nodes".
		if round < 0 || round > 10 {
			t.Errorf("%s: Detect reached -0.4 at round %d, want <= 10", name, round)
		}
	}
	for name, final := range res.Final {
		// Paper: "in the last rounds, the investigation converges and
		// reaches −0.8 regardless of the percentage of liars".
		if final > -0.75 {
			t.Errorf("%s: final Detect = %v, want <= -0.75", name, final)
		}
	}
}

func TestFig3MoreLiarsSlowerDetection(t *testing.T) {
	// "the greatest is the number of liars the slowest gets the
	// detection": early-round Detect must be ordered by liar count.
	cfg := DefaultConfig()
	cfg.NonAnswerProb = 0 // isolate the liar effect
	res := NewRunner(cfg.Seed, 0).Fig3(cfg, []int{1, 7})
	var few, many string
	for _, n := range res.Table.Names() {
		if strings.HasPrefix(n, "liars=1") {
			few = n
		}
		if strings.HasPrefix(n, "liars=7") {
			many = n
		}
	}
	vFew := res.Table.Series(few).At(1)
	vMany := res.Table.Series(many).At(1)
	if vFew >= vMany {
		t.Errorf("early detection with 1 liar (%v) should be more negative than with 7 (%v)", vFew, vMany)
	}
}

func TestFig3LiarInfluenceFades(t *testing.T) {
	// "liars have almost no influence on the investigation in the last
	// rounds": the gap between liar fractions must shrink.
	cfg := DefaultConfig()
	cfg.NonAnswerProb = 0
	res := NewRunner(cfg.Seed, 0).Fig3(cfg, []int{1, 7})
	names := res.Table.Names()
	early := abs(res.Table.Series(names[0]).At(1) - res.Table.Series(names[1]).At(1))
	late := abs(res.Table.Series(names[0]).Last() - res.Table.Series(names[1]).Last())
	if late > early {
		t.Errorf("liar influence grew: early gap %v, late gap %v", early, late)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 5
	f1 := NewRunner(cfg.Seed, 0).Fig1(cfg)
	out := f1.Table.Render()
	if !strings.Contains(out, "Fig 1") || !strings.Contains(out, "round") {
		t.Errorf("render missing header: %q", out[:80])
	}
	if lines := strings.Count(out, "\n"); lines != 2+cfg.Rounds+1 {
		t.Errorf("render has %d lines", lines)
	}
	csv := f1.Table.CSV()
	if !strings.HasPrefix(csv, "round,") {
		t.Errorf("csv header: %q", csv[:40])
	}
}

func TestConfigClamping(t *testing.T) {
	p := NewPopulation(Config{Seed: 1, Nodes: 2, Liars: 99, Rounds: 0, Params: trust.DefaultParams()})
	if len(p.Responders) == 0 {
		t.Fatal("degenerate config produced no responders")
	}
	liars := 0
	for _, r := range p.Responders {
		if p.IsLiar[r] {
			liars++
		}
	}
	if liars > len(p.Responders) {
		t.Fatal("more liars than responders")
	}
}
