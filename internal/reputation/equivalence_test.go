package reputation

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/trust"
)

// ledgerEps bounds the acceptable divergence between the dense
// index-backed ledger and the map-backed reference. The two run the same
// float arithmetic in the same deterministic order, so they must agree to
// well below any behavioral threshold.
const ledgerEps = 1e-12

// mapLedger is the reference implementation: the pre-dense table layout
// (subject -> recommender -> latest accepted report) with the sort-based
// deterministic iteration the dense rows replaced. Its semantics are the
// contract the slab layout must reproduce exactly.
type mapLedger struct {
	self     addr.Node
	noFilter bool
	direct   *trust.Store
	rec      *trust.Store
	table    map[addr.Node]map[addr.Node]received

	badVectors map[addr.Node]int
	flagged    addr.Set
	stats      Stats
}

func newMapLedger(self addr.Node, direct *trust.Store, noFilter bool) *mapLedger {
	return &mapLedger{
		self:       self,
		noFilter:   noFilter,
		direct:     direct,
		rec:        trust.NewStore(direct.Params()),
		table:      make(map[addr.Node]map[addr.Node]received),
		badVectors: make(map[addr.Node]int),
	}
}

func (l *mapLedger) Ingest(recommender addr.Node, entries []Entry, now time.Duration) {
	if recommender == l.self || len(entries) == 0 {
		return
	}
	l.stats.Vectors++
	passed, failed := 0, 0
	for _, e := range entries {
		if e.About == l.self || e.About == recommender {
			continue
		}
		if !l.noFilter && l.direct.FirstHand(e.About) {
			dev := l.direct.Get(e.About) - e.Trust
			if dev < 0 {
				dev = -dev
			}
			if dev > deviation {
				failed++
				l.stats.Rejected++
				continue
			}
			passed++
		}
		l.stats.Accepted++
		m := l.table[e.About]
		if m == nil {
			m = make(map[addr.Node]received)
			l.table[e.About] = m
		}
		m[recommender] = received{from: recommender, trust: e.Trust, at: now}
	}
	if l.noFilter || passed+failed == 0 {
		return
	}
	l.rec.Update(recommender, []trust.Evidence{{
		Value: float64(passed-failed) / float64(passed+failed),
	}})
	if failed > passed {
		l.badVectors[recommender]++
		if l.badVectors[recommender] == dishonestAfter && !l.flagged.Has(recommender) {
			l.flagged.Add(recommender)
			l.stats.Flagged++
		}
	}
}

func (l *mapLedger) BootstrapTrust(subject addr.Node, now time.Duration) (float64, bool) {
	m := l.table[subject]
	if len(m) == 0 {
		return 0, false
	}
	recommenders := make([]addr.Node, 0, len(m))
	for s := range m {
		recommenders = append(recommenders, s)
	}
	sort.Slice(recommenders, func(i, j int) bool { return recommenders[i] < recommenders[j] })
	recs := make([]trust.Recommendation, 0, len(recommenders))
	var mass float64
	for _, s := range recommenders {
		r := m[s]
		if now-r.at > Freshness {
			continue
		}
		rec := trust.Recommendation{R: l.rec.Get(s), T: r.trust}
		mass += rec.R
		recs = append(recs, rec)
	}
	if len(recs) == 0 || mass < minMass {
		return 0, false
	}
	if len(recs) == 1 {
		return trust.Concatenated(recs[0].R, recs[0].T), true
	}
	return trust.Multipath(recs)
}

func (l *mapLedger) vector() []Entry {
	nodes := l.direct.Nodes()
	out := make([]Entry, 0, min(len(nodes), maxEntries))
	for _, n := range nodes {
		if n == l.self || !l.direct.FirstHand(n) {
			continue
		}
		if len(out) >= maxEntries {
			break
		}
		out = append(out, Entry{About: n, Trust: l.direct.Get(n)})
	}
	return out
}

// ledgerMirror drives the dense ledger and the map reference with
// identical operations and cross-checks every observable.
type ledgerMirror struct {
	t     *testing.T
	dense *Ledger
	ref   *mapLedger
	pop   []addr.Node
	now   time.Duration
}

func newLedgerMirror(t *testing.T, noFilter bool, members int) *ledgerMirror {
	t.Helper()
	self := addr.NodeAt(1)
	direct := trust.NewStore(trust.DefaultParams())
	pop := make([]addr.Node, 0, members+3)
	for i := 1; i <= members; i++ {
		pop = append(pop, addr.NodeAt(i))
	}
	// Strays outside the contiguous population: phantom suspects and
	// wormhole mouths land on the index overflow path.
	for i := 0; i < 3; i++ {
		pop = append(pop, addr.NodeAt(members+83+817*i))
	}
	return &ledgerMirror{
		t:     t,
		dense: NewLedger(self, direct, noFilter),
		ref:   newMapLedger(self, direct, noFilter),
		pop:   pop,
	}
}

func (m *ledgerMirror) check() {
	m.t.Helper()
	ds, rs := m.dense.Stats(), m.ref.stats
	if ds != rs {
		m.t.Fatalf("stats diverged: dense %+v, ref %+v", ds, rs)
	}
	for _, n := range m.pop {
		dv, dok := m.dense.BootstrapTrust(n, m.now)
		rv, rok := m.ref.BootstrapTrust(n, m.now)
		if dok != rok {
			m.t.Fatalf("BootstrapTrust(%v) ok: dense %v, ref %v", n, dok, rok)
		}
		if diff := dv - rv; diff > ledgerEps || diff < -ledgerEps {
			m.t.Fatalf("BootstrapTrust(%v): dense %v, ref %v", n, dv, rv)
		}
		dr, rr := m.dense.RecommendationTrust(n), m.ref.rec.Get(n)
		if diff := dr - rr; diff > ledgerEps || diff < -ledgerEps {
			m.t.Fatalf("RecommendationTrust(%v): dense %v, ref %v", n, dr, rr)
		}
	}
	dvec, rvec := m.dense.AppendVector(nil), m.ref.vector()
	if len(dvec) != len(rvec) {
		m.t.Fatalf("AppendVector length: dense %d, ref %d", len(dvec), len(rvec))
	}
	for i := range dvec {
		if dvec[i] != rvec[i] {
			m.t.Fatalf("AppendVector[%d]: dense %+v, ref %+v", i, dvec[i], rvec[i])
		}
	}
	df, rf := m.dense.FlaggedDishonest(), m.ref.flagged
	if len(df) != len(rf) {
		m.t.Fatalf("flagged: dense %v, ref %v", df, rf)
	}
	for i := range df {
		if df[i] != rf[i] {
			m.t.Fatalf("flagged: dense %v, ref %v", df, rf)
		}
	}
}

// TestLedgerEquivalence hammers both ledgers with randomized ingest and
// bootstrap sequences — including dishonest vectors, stale reports and
// stray subjects — and demands identical observables throughout.
func TestLedgerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
		m := newLedgerMirror(t, seed%6 == 0, 12+rng.Intn(8))
		// Seed direct-trust history so the deviation test has first-hand
		// anchors (the shared direct store feeds both ledgers).
		direct := m.dense.direct
		for _, n := range m.pop {
			switch rng.Intn(3) {
			case 0:
				direct.Set(n, rng.Float64())
			case 1:
				direct.Update(n, []trust.Evidence{{Value: rng.Float64()*2 - 1}})
			}
		}
		ops := 1000 + rng.Intn(500)
		for op := 0; op < ops; op++ {
			m.now += time.Duration(rng.Intn(2000)) * time.Millisecond
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // gossip arrives
				recommender := m.pop[rng.Intn(len(m.pop))]
				n := 1 + rng.Intn(6)
				entries := make([]Entry, 0, n)
				for i := 0; i < n; i++ {
					about := m.pop[rng.Intn(len(m.pop))]
					tv := rng.Float64()
					if rng.Intn(3) == 0 {
						tv = 0 // badmouthing
					}
					entries = append(entries, Entry{About: about, Trust: tv})
				}
				m.dense.Ingest(recommender, entries, m.now)
				m.ref.Ingest(recommender, entries, m.now)
			case 6: // direct trust evolves between vectors
				n := m.pop[rng.Intn(len(m.pop))]
				direct.Update(n, []trust.Evidence{{Value: rng.Float64()*2 - 1}})
			case 7: // direct opinion seeded from gossip, not first-hand
				direct.SetSeeded(m.pop[rng.Intn(len(m.pop))], rng.Float64())
			default:
				m.check()
			}
		}
		m.check()
	}
}
