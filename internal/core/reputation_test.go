package core

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// repNetwork builds a 5-node line 1—2—3—4—5 (150m spacing, 200m range)
// with detectors (and hence ledgers) on every node, the reputation plane
// on, and an optional recommender attack on node 5.
func repNetwork(t *testing.T, rec *attack.Recommender) *Network {
	t.Helper()
	w := NewNetwork(Config{
		Seed:       1,
		Radio:      radio.Config{Prop: radio.UnitDisk{Range: 200}, PropDelay: time.Millisecond},
		Reputation: ReputationConfig{Enabled: true},
	})
	known := addr.NewSet()
	for i := 1; i <= 5; i++ {
		known.Add(addr.NodeAt(i))
	}
	for i := 1; i <= 5; i++ {
		spec := NodeSpec{
			ID:       addr.NodeAt(i),
			Pos:      mobility.Static{P: geo.Pt(float64(i)*150, 0)},
			Detector: &detect.Config{KnownNodes: known.Clone()},
		}
		if i == 5 {
			spec.Recommender = rec
		}
		w.AddNode(spec)
	}
	return w
}

// TestRecommendGossipPropagates pins the transport: a vector originated
// at one end of the line is flood-relayed hop by hop and ingested by the
// far end's ledger.
func TestRecommendGossipPropagates(t *testing.T) {
	// Node 5 recommends via the attack hook (deterministic content);
	// honest vectors need explicit trust values, which a quiet honest
	// line does not accumulate fast.
	rec := &attack.Recommender{Strategy: BallotStrategyForTest(), Targets: []addr.Node{addr.NodeAt(4)}}
	w := repNetwork(t, rec)
	w.Start()
	w.RunFor(45 * time.Second)

	far := w.Node(addr.NodeAt(1))
	if got := far.Rep.Stats().Vectors; got == 0 {
		t.Fatal("node 1 ingested no vectors from node 5 four hops away")
	}
	if _, ok := far.Rep.BootstrapTrust(addr.NodeAt(4), w.Sched.Now()); !ok {
		t.Fatal("no bootstrapped opinion about the vouched subject at the far end")
	}
}

// BallotStrategyForTest returns the ballot-stuffing strategy; a helper so
// the test reads as intent, not as a magic constant.
func BallotStrategyForTest() attack.RecommenderStrategy { return attack.BallotStuff }

// TestRecommendDedupStopsFlood pins that re-broadcast copies of one
// vector are ingested once: with 5 nodes relaying every frame, a missing
// dedup would multiply Vectors far past the emission count.
func TestRecommendDedupStopsFlood(t *testing.T) {
	rec := &attack.Recommender{Strategy: attack.BallotStuff, Targets: []addr.Node{addr.NodeAt(4)}}
	w := repNetwork(t, rec)
	w.Start()
	w.RunFor(35 * time.Second)

	// ~3 emissions by node 5 in 35s; each must be ingested at most once
	// per receiver even though every node relays the flood.
	if got := w.Node(addr.NodeAt(1)).Rep.Stats().Vectors; got > 4 {
		t.Fatalf("node 1 ingested %d vectors from ~3 emissions: dedup failed", got)
	}
}

// TestRecommenderOnOffAlternates pins the on-off adversary end to end:
// with a 20s period the node alternates forged and camouflaged vectors,
// and receivers see both phases' values.
func TestRecommenderOnOffAlternates(t *testing.T) {
	subject := addr.NodeAt(4)
	rec := &attack.Recommender{
		Strategy: attack.Badmouth,
		Targets:  []addr.Node{subject},
		OnOff:    20 * time.Second,
	}
	w := repNetwork(t, rec)
	w.Start()
	w.RunFor(60 * time.Second)

	if rec.Forged() == 0 || rec.Camouflaged() == 0 {
		t.Fatalf("on-off attacker never alternated: forged=%d camouflaged=%d",
			rec.Forged(), rec.Camouflaged())
	}
}

// TestReputationPlaneOffIsInert pins the opt-out contract: with the
// plane disabled no ledger exists, no gossip is scheduled, and the event
// count matches a pre-reputation network exactly.
func TestReputationPlaneOffIsInert(t *testing.T) {
	build := func(rep ReputationConfig) *Network {
		w := NewNetwork(Config{
			Seed:       1,
			Radio:      radio.Config{Prop: radio.UnitDisk{Range: 200}, PropDelay: time.Millisecond},
			Reputation: rep,
		})
		known := addr.NewSet()
		for i := 1; i <= 5; i++ {
			known.Add(addr.NodeAt(i))
		}
		for i := 1; i <= 5; i++ {
			w.AddNode(NodeSpec{
				ID:       addr.NodeAt(i),
				Pos:      mobility.Static{P: geo.Pt(float64(i)*150, 0)},
				Detector: &detect.Config{KnownNodes: known.Clone()},
			})
		}
		w.Start()
		w.RunFor(60 * time.Second)
		return w
	}
	off := build(ReputationConfig{})
	on := build(ReputationConfig{Enabled: true})
	if off.Node(addr.NodeAt(1)).Rep != nil {
		t.Fatal("ledger built with the plane off")
	}
	if off.Sched.Processed() >= on.Sched.Processed() {
		t.Fatalf("plane-on run (%d events) not heavier than plane-off (%d): gossip never scheduled?",
			on.Sched.Processed(), off.Sched.Processed())
	}
}
