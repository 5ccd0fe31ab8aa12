package reputation

import (
	"math"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/trust"
)

func newTestLedger(noFilter bool) (*Ledger, *trust.Store) {
	direct := trust.NewStore(trust.DefaultParams())
	return NewLedger(addr.NodeAt(1), direct, noFilter), direct
}

func entries(pairs ...any) []Entry {
	out := make([]Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Entry{About: pairs[i].(addr.Node), Trust: pairs[i+1].(float64)})
	}
	return out
}

func TestBootstrapSinglePathIsConcatenated(t *testing.T) {
	l, _ := newTestLedger(false)
	s, subject := addr.NodeAt(2), addr.NodeAt(9)
	l.Ingest(s, entries(subject, 0.8), 0)
	got, ok := l.BootstrapTrust(subject, time.Second)
	if !ok {
		t.Fatal("no bootstrap from a stored recommendation")
	}
	want := trust.Concatenated(l.RecommendationTrust(s), 0.8)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bootstrap = %v, want Eq. 6 value %v", got, want)
	}
}

func TestBootstrapMultipathCombinesRecommenders(t *testing.T) {
	l, _ := newTestLedger(false)
	subject := addr.NodeAt(9)
	l.Ingest(addr.NodeAt(2), entries(subject, 0.8), 0)
	l.Ingest(addr.NodeAt(3), entries(subject, 0.6), 0)
	got, ok := l.BootstrapTrust(subject, time.Second)
	if !ok {
		t.Fatal("no bootstrap")
	}
	want, _ := trust.Multipath([]trust.Recommendation{
		{R: l.RecommendationTrust(addr.NodeAt(2)), T: 0.8},
		{R: l.RecommendationTrust(addr.NodeAt(3)), T: 0.6},
	})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bootstrap = %v, want Eq. 7 value %v", got, want)
	}
}

func TestDeviationTestRejectsOutliers(t *testing.T) {
	l, direct := newTestLedger(false)
	known := addr.NodeAt(5)
	direct.Set(known, 0.7)
	liar := addr.NodeAt(2)
	l.Ingest(liar, entries(known, 0.0), 0) // badmouthing a node we know at 0.7
	if got := l.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if _, ok := l.BootstrapTrust(known, time.Second); ok {
		t.Fatal("rejected entry was stored anyway")
	}
	// The failed vector costs recommendation trust.
	if r := l.RecommendationTrust(liar); r >= direct.Params().Default {
		t.Fatalf("R(liar) = %v, want below default %v", r, direct.Params().Default)
	}
	// An accurate vector passes and earns.
	honest := addr.NodeAt(3)
	l.Ingest(honest, entries(known, 0.65), 0)
	if got := l.Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	if r := l.RecommendationTrust(honest); r <= direct.Params().Default*0.99 {
		t.Fatalf("R(honest) = %v, want not below default", r)
	}
}

func TestNoFilterAcceptsEverything(t *testing.T) {
	l, direct := newTestLedger(true)
	known := addr.NodeAt(5)
	direct.Set(known, 0.9)
	liar := addr.NodeAt(2)
	l.Ingest(liar, entries(known, 0.0), 0)
	if got := l.Stats().Rejected; got != 0 {
		t.Fatalf("rejected = %d with the filter off", got)
	}
	if _, ok := l.BootstrapTrust(known, time.Second); !ok {
		t.Fatal("filter-off arm must store the entry")
	}
	if r := l.RecommendationTrust(liar); r != direct.Params().Default {
		t.Fatalf("R moved (%v) although the filter arm is off", r)
	}
}

func TestDishonestFlagFiresOnceAfterThreshold(t *testing.T) {
	l, direct := newTestLedger(false)
	known := addr.NodeAt(5)
	direct.Set(known, 0.8)
	var fired []addr.Node
	l.OnDishonest = func(rec addr.Node, _ string) { fired = append(fired, rec) }
	liar := addr.NodeAt(2)
	for i := 0; i < 5; i++ {
		l.Ingest(liar, entries(known, 0.0), time.Duration(i)*time.Second)
	}
	if len(fired) != 1 || fired[0] != liar {
		t.Fatalf("OnDishonest fired %v, want once for %v", fired, liar)
	}
	if got := l.FlaggedDishonest(); len(got) != 1 || got[0] != liar {
		t.Fatalf("FlaggedDishonest = %v", got)
	}
}

func TestFreshnessExpiresOldOpinion(t *testing.T) {
	l, _ := newTestLedger(false)
	subject := addr.NodeAt(9)
	l.Ingest(addr.NodeAt(2), entries(subject, 0.8), 0)
	if _, ok := l.BootstrapTrust(subject, Freshness); !ok {
		t.Fatal("fresh opinion ignored")
	}
	if _, ok := l.BootstrapTrust(subject, Freshness+time.Millisecond); ok {
		t.Fatal("stale opinion used")
	}
	// A re-gossip refreshes it.
	l.Ingest(addr.NodeAt(2), entries(subject, 0.8), 70*time.Second)
	if _, ok := l.BootstrapTrust(subject, 100*time.Second); !ok {
		t.Fatal("refreshed opinion ignored")
	}
}

func TestIngestIgnoresSelfAndSelfPromotion(t *testing.T) {
	l, _ := newTestLedger(false)
	self, rec := addr.NodeAt(1), addr.NodeAt(2)
	l.Ingest(rec, entries(self, 0.0, rec, 1.0), 0)
	if _, ok := l.BootstrapTrust(self, time.Second); ok {
		t.Fatal("stored an opinion about self")
	}
	if _, ok := l.BootstrapTrust(rec, time.Second); ok {
		t.Fatal("stored a recommender's self-promotion")
	}
	// A vector from our own address is dropped whole.
	l.Ingest(self, entries(addr.NodeAt(9), 0.5), 0)
	if got := l.Stats().Vectors; got != 1 {
		t.Fatalf("vectors = %d, want 1 (own echo ignored)", got)
	}
}

func TestBuildVectorSortedAndCapped(t *testing.T) {
	l, direct := newTestLedger(false)
	// 40 subjects set in descending order, plus self: the vector keeps
	// the maxEntries lowest addresses, sorted, and omits self.
	for i := 41; i >= 2; i-- {
		direct.Set(addr.NodeAt(i), float64(i)/100)
	}
	direct.Set(addr.NodeAt(1), 0.1)
	v := l.AppendVector(nil)
	if len(v) != maxEntries {
		t.Fatalf("len = %d, want cap %d", len(v), maxEntries)
	}
	for i, e := range v {
		if e.About != addr.NodeAt(i+2) {
			t.Fatalf("vector[%d] is about %v, want %v", i, e.About, addr.NodeAt(i+2))
		}
	}
}

// TestBallotStuffingDiscountedByCollapsedR pins the payoff: once a
// stuffer's R collapses via deviation failures on known subjects, its
// inflated opinion about a stranger stops dominating the multipath mix.
func TestBallotStuffingDiscountedByCollapsedR(t *testing.T) {
	l, direct := newTestLedger(false)
	known, stranger := addr.NodeAt(5), addr.NodeAt(9)
	direct.Set(known, 0.5)
	stuffer, honest := addr.NodeAt(2), addr.NodeAt(3)
	// The stuffer keeps vouching 1.0 for the stranger while lying about
	// the known node; the honest recommender reports accurately.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Second
		l.Ingest(stuffer, entries(known, 1.0, stranger, 1.0), at)
		l.Ingest(honest, entries(known, 0.5, stranger, 0.3), at)
	}
	got, ok := l.BootstrapTrust(stranger, 10*time.Second)
	if !ok {
		t.Fatal("no bootstrap")
	}
	// With the stuffer's R collapsed the mix must sit near the honest
	// report, not the midpoint of 0.3 and 1.0.
	if got > 0.45 {
		t.Fatalf("bootstrap = %v: stuffer still dominates (R=%v, honest R=%v)",
			got, l.RecommendationTrust(stuffer), l.RecommendationTrust(honest))
	}
}

// TestSeededOpinionIsNoAnchorAndNotGossiped pins the rumor-loop guard:
// a direct-store value that is only a gossip seed must not anchor the
// deviation test (honest gossip disagreeing with the first rumor heard
// would be rejected) and must not appear in the node's own vector
// (re-gossiping it would launder second-hand opinion as first-hand).
func TestSeededOpinionIsNoAnchorAndNotGossiped(t *testing.T) {
	l, direct := newTestLedger(false)
	subject := addr.NodeAt(9)
	direct.SetSeeded(subject, 0.0) // a badmouther's frame, seeded via bootstrap

	// Honest gossip contradicting the seed passes untested (no first-hand
	// anchor), instead of being rejected at |0.4-0.0| > threshold.
	honest := addr.NodeAt(3)
	l.Ingest(honest, entries(subject, 0.4), 0)
	if got := l.Stats().Rejected; got != 0 {
		t.Fatalf("honest gossip rejected against a mere seed (rejected=%d)", got)
	}
	if _, ok := l.BootstrapTrust(subject, time.Second); !ok {
		t.Fatal("honest recommendation not stored")
	}

	// The seed never enters our own vector; first-hand values do.
	direct.Set(addr.NodeAt(5), 0.7)
	for _, e := range l.AppendVector(nil) {
		if e.About == subject {
			t.Fatalf("seeded opinion re-gossiped: %+v", e)
		}
	}
	if len(l.AppendVector(nil)) != 1 {
		t.Fatalf("vector = %+v, want only the first-hand node", l.AppendVector(nil))
	}
}
