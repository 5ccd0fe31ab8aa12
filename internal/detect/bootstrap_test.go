package detect

import (
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/sim"
	"repro/internal/trust"
)

// mapBootstrap is a scriptable TrustBootstrapper.
type mapBootstrap map[addr.Node]float64

func (m mapBootstrap) BootstrapTrust(n addr.Node) (float64, bool) {
	v, ok := m[n]
	return v, ok
}

// newBootstrapScenario is newScenario with a reputation bootstrapper
// installed: the observer has no direct history with any responder, so
// every observation's weight must come from the bootstrap map.
func newBootstrapScenario(t *testing.T, boot TrustBootstrapper) *scenario {
	t.Helper()
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(99)), nil)
	// Rebuild the detector with the bootstrapper; everything else is the
	// canonical honest world.
	sc.det = NewDetector(Config{
		Self: sc.observer,
		KnownNodes: addr.NewSet(sc.observer, sc.suspect, addr.NodeAt(2), addr.NodeAt(3),
			addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)),
		Bootstrap: boot,
	}, sc.sched, sc.obs, sc.logs, sc.tr, sc.store)
	sc.tr.detector = sc.det
	return sc
}

// TestBootstrapSeedsStrangerTrust pins the trust sourcing rule: with a
// bootstrapper, a stranger's testimony is weighed (and the store seeded)
// at the propagated value instead of the cold default.
func TestBootstrapSeedsStrangerTrust(t *testing.T) {
	boot := mapBootstrap{addr.NodeAt(2): 0.9}
	sc := newBootstrapScenario(t, boot)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(10 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no finalized round")
	}
	var got, def float64
	for _, o := range sc.reports()[0].Observations {
		switch o.Source {
		case addr.NodeAt(2):
			got = o.Trust
		case addr.NodeAt(3):
			def = o.Trust
		}
	}
	if got != 0.9 {
		t.Fatalf("bootstrapped responder weighed at %v, want 0.9", got)
	}
	if def != sc.store.Params().Default {
		t.Fatalf("unbootstrapped responder weighed at %v, want the default %v", def, sc.store.Params().Default)
	}
	// The seed landed in the store, and the round's own evidence evolved
	// it into a first-hand value.
	known := slices.Contains(sc.store.NodesInto(nil), addr.NodeAt(2))
	if !known || !sc.store.FirstHand(addr.NodeAt(2)) || sc.store.Get(addr.NodeAt(2)) == sc.store.Params().Default {
		t.Fatalf("bootstrap not seeded into the store: known=%v first-hand=%v value=%v",
			known, sc.store.FirstHand(addr.NodeAt(2)), sc.store.Get(addr.NodeAt(2)))
	}
}

// TestDirectHistoryOutranksBootstrap pins precedence: an explicit store
// value wins over any recommendation.
func TestDirectHistoryOutranksBootstrap(t *testing.T) {
	boot := mapBootstrap{addr.NodeAt(2): 0.9}
	sc := newBootstrapScenario(t, boot)
	sc.store.Set(addr.NodeAt(2), 0.1)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(10 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no finalized round")
	}
	for _, o := range sc.reports()[0].Observations {
		if o.Source == addr.NodeAt(2) && o.Trust != 0.1 {
			t.Fatalf("direct history overridden: weighed at %v, want 0.1", o.Trust)
		}
	}
}

// TestDishonestRecommenderAlertIsNotConviction pins the reputation
// plane's restraint: a flag raises the alert and costs trust, but
// produces no report and no verdict.
func TestDishonestRecommenderAlertIsNotConviction(t *testing.T) {
	sched := sim.New(1)
	store := trust.NewStore(trust.DefaultParams())
	det := NewDetector(Config{Self: addr.NodeAt(1)}, sched,
		&fakeRouter{self: addr.NodeAt(1), sym: addr.NewSet()},
		&auditlog.Buffer{}, &memTransport{sched: sched}, store)

	liar := addr.NodeAt(7)
	before := store.Get(liar)
	det.ReportDishonestRecommender(liar, "test flag")
	if got := store.Get(liar); got >= before {
		t.Fatalf("trust did not drop: %v -> %v", before, got)
	}
	if _, convicted := det.Verdict(liar); convicted {
		t.Fatal("a statistical flag produced a verdict")
	}
	alerts := det.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "dishonest-recommender" {
		t.Fatalf("alerts = %+v", alerts)
	}
	if len(det.Reports()) != 0 {
		t.Fatal("a flag filed an investigation report")
	}
	// Self-flags are ignored.
	det.ReportDishonestRecommender(addr.NodeAt(1), "self")
	if len(det.Alerts()) != 1 {
		t.Fatal("self-flag raised an alert")
	}
}
