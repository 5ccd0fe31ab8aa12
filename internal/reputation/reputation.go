// Package reputation implements the recommendation plane of the trust
// system (DESIGN.md §9): nodes periodically gossip trust vectors — their
// direct trust in third parties — and receivers fold those second-hand
// opinions into an effective trust for strangers via the paper's trust
// propagation equations (Eq. 6 concatenation, Eq. 7 multipath).
//
// Second-hand opinion is an attack surface (badmouthing, ballot
// stuffing), so acceptance is guarded the way Sen's distributed trust
// frameworks (arXiv:1012.2519, arXiv:1010.5176) guard it:
//
//   - a deviation test compares each received recommendation against the
//     receiver's own direct trust in the same subject and rejects
//     outliers beyond a threshold;
//   - recommendation trust R(A,S) — how much A trusts S *as a
//     recommender* — is a separate ledger from direct trust, updated by
//     S's historical accuracy on the deviation test. A neighbor can be a
//     perfectly good packet relay and a worthless (or hostile) gossip
//     source; conflating the two ledgers would let either role launder
//     the other.
//
// The ledger is deliberately transport-agnostic: internal/core floods
// wire.Recommend messages and calls Ingest; internal/detect consults
// BootstrapTrust when an investigation must weigh testimony from a node
// it has no direct history with.
package reputation

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/trust"
)

// The ledger's constants.
const (
	// deviation is the acceptance threshold of the deviation test: a
	// recommendation about a subject the receiver knows first-hand is
	// rejected when |T_direct − T_reported| exceeds it.
	deviation = 0.25
	// maxEntries caps the subjects carried per gossiped vector.
	// Truncation is deterministic: lowest addresses first.
	maxEntries = 32
	// Freshness bounds the age of recommendations used by BootstrapTrust
	// — property 4 of §IV-A applied to second-hand opinion. It is also
	// the validity time of every gossiped vector.
	Freshness = 60 * time.Second
	// dishonestAfter is how many majority-failed vectors from one
	// recommender trigger the OnDishonest callback.
	dishonestAfter = 3
	// minMass is the minimum total recommendation trust ΣR behind a
	// bootstrap (half a fresh recommender's default R): below it
	// BootstrapTrust abstains rather than hand the caller an opinion
	// nobody creditworthy stands behind. This is what stops a
	// deviation-collapsed recommender from still framing strangers — its
	// reports survive in the table, but carry no usable mass.
	minMass = 0.2
)

// received is one accepted recommendation: who reported it, the reported
// trust, and when it arrived. Rows keep their entries sorted by
// recommender, which is both the lookup structure and the deterministic
// iteration order BootstrapTrust needs (the map-backed table had to sort
// on every bootstrap).
type received struct {
	from  addr.Node
	trust float64
	at    time.Duration
}

// Stats are the ledger's cumulative counters.
type Stats struct {
	// Vectors is how many gossiped vectors were ingested.
	Vectors uint64
	// Accepted and Rejected count individual entries through the
	// deviation test (untestable entries — unknown subjects — count as
	// accepted; with noFilter everything is accepted).
	Accepted, Rejected uint64
	// Flagged is how many recommenders were reported dishonest.
	Flagged int
}

// Ledger is one node's reputation state: the recommendation-trust store
// R(A,·), the table of accepted recommendations, and the deviation-test
// bookkeeping. It shares the node's *direct* trust store read-only (the
// deviation test needs first-hand opinion to compare against).
type Ledger struct {
	self addr.Node
	// noFilter disables the deviation test and the recommendation-trust
	// updates: every entry is accepted at face value. This is the
	// ablation arm of the X9 sweep, not a deployment mode.
	noFilter bool
	direct   *trust.Store
	rec      *trust.Store // R(A,S): trust in S as a recommender

	// rows holds the latest accepted report per (subject, recommender):
	// the outer slice is dense over the run's node index (shared with the
	// direct store), each row sorted by recommender.
	ix   *addr.Index
	rows [][]received

	badVectors map[addr.Node]int // majority-failed vectors per recommender
	flagged    addr.Set

	// Scratch reused across calls; never retained or returned.
	recsScratch []trust.Recommendation
	nodeScratch []addr.Node

	// OnDishonest, when set, observes each recommender whose gossip
	// failed the deviation test dishonestAfter times (fired once per
	// recommender). The detector turns it into a signature alert.
	OnDishonest func(rec addr.Node, detail string)
	// OnIngest, when set, observes every processed vector with its
	// deviation-test outcome (the run-trace plane hooks here). Both
	// counts are zero for vectors with no testable entries.
	OnIngest func(rec addr.Node, passed, failed int)

	stats Stats
}

// NewLedger creates a ledger for self. direct is the node's own trust
// store (read for the deviation test, never written); the
// recommendation-trust ledger R starts every recommender at the same
// params' default and evolves by deviation-test accuracy. noFilter
// accepts every entry at face value (the X9 ablation arm).
func NewLedger(self addr.Node, direct *trust.Store, noFilter bool) *Ledger {
	return &Ledger{
		self:       self,
		noFilter:   noFilter,
		direct:     direct,
		rec:        trust.NewStoreIndexed(direct.Params(), direct.Index()),
		ix:         direct.Index(),
		badVectors: make(map[addr.Node]int),
	}
}

// row returns subject's report row, assigning an index slot on first
// contact.
func (l *Ledger) row(subject addr.Node) *[]received {
	slot := l.ix.Assign(subject)
	if slot >= len(l.rows) {
		l.rows = append(l.rows, make([][]received, slot+1-len(l.rows))...)
	}
	return &l.rows[slot]
}

// Stats returns the cumulative counters.
func (l *Ledger) Stats() Stats { return l.stats }

// RecommendationTrust returns R(self, s) — the default for strangers.
func (l *Ledger) RecommendationTrust(s addr.Node) float64 { return l.rec.Get(s) }

// FlaggedDishonest returns the recommenders reported dishonest, sorted.
func (l *Ledger) FlaggedDishonest() []addr.Node { return l.flagged.Clone() }

// Entry is one subject of a trust vector in float form. The wire codec
// (wire.Recommend) quantizes it to 16 bits; the ledger works on the
// quantized grid in both directions so gossip round-trips exactly.
type Entry struct {
	About addr.Node
	Trust float64
}

// AppendVector appends this node's own outgoing recommendation to out:
// its first-hand direct-trust values, sorted by subject, capped at
// maxEntries. Nodes with no explicit value are omitted — recommending
// the cold default would only dilute real information — and so are
// values merely seeded from other nodes' gossip (trust.Store.FirstHand):
// re-gossiping a seed would launder second-hand rumor as first-hand
// testimony and let one dishonest vector echo through the network under
// honest recommenders' standing. The gossip tick reuses one slice across
// emissions instead of allocating a vector per period.
//
//repro:allocfree
func (l *Ledger) AppendVector(out []Entry) []Entry {
	l.nodeScratch = l.direct.NodesInto(l.nodeScratch[:0]) // sorted
	appended := 0
	for _, n := range l.nodeScratch {
		if n == l.self || !l.direct.FirstHand(n) {
			continue
		}
		if appended >= maxEntries {
			break
		}
		out = append(out, Entry{About: n, Trust: l.direct.Get(n)})
		appended++
	}
	return out
}

// Ingest processes one received trust vector from recommender at virtual
// time now. Entries about the receiver itself, about the recommender
// itself (self-promotion), or from the receiver's own address are
// ignored. Each remaining entry faces the deviation test when the
// receiver holds a FIRST-HAND opinion about the subject — a value that
// is itself only a gossip seed is no anchor (testing against it would
// reject honest gossip that disagrees with the first rumor heard);
// untestable entries are accepted on the recommender's standing alone.
//
//repro:allocfree
func (l *Ledger) Ingest(recommender addr.Node, entries []Entry, now time.Duration) {
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
				continue // the outlier is not stored
			}
			passed++
		}
		l.stats.Accepted++
		row := l.row(e.About)
		i, found := slices.BinarySearchFunc(*row, recommender, func(r received, n addr.Node) int {
			switch {
			case r.from < n:
				return -1
			case r.from > n:
				return 1
			default:
				return 0
			}
		})
		if found {
			(*row)[i].trust, (*row)[i].at = e.Trust, now
		} else {
			// Inserted by append and copy rather than slices.Insert: the
			// row grows the same way, but a race build pays for
			// slices.Insert's growth twice (DESIGN.md §10).
			*row = append(*row, received{})
			copy((*row)[i+1:], (*row)[i:])
			(*row)[i] = received{from: recommender, trust: e.Trust, at: now}
		}
	}
	if l.OnIngest != nil {
		l.OnIngest(recommender, passed, failed)
	}
	if l.noFilter || passed+failed == 0 {
		return // nothing testable: the recommender's standing is unchanged
	}
	// R(A,S) moves by the vector's aggregate accuracy (Eq. 5 on the
	// recommendation ledger): a clean vector earns slowly, a dishonest
	// one loses fast — the same defensive asymmetry as direct trust.
	l.rec.Update(recommender, []trust.Evidence{{
		Value: float64(passed-failed) / float64(passed+failed),
	}})
	if failed > passed {
		l.badVectors[recommender]++
		if l.badVectors[recommender] == dishonestAfter && !l.flagged.Has(recommender) {
			l.flagged.Add(recommender)
			l.stats.Flagged++
			if l.OnDishonest != nil {
				//reprolint:ignore allocann fires at most once per recommender per run (flag transition), never on the steady gossip path the alloc tier pins
				l.OnDishonest(recommender, fmt.Sprintf(
					"%d gossiped trust vectors majority-failed the deviation test", dishonestAfter))
			}
		}
	}
}

// BootstrapTrust derives an effective trust in subject from accepted,
// fresh recommendations — the wiring of Eq. 6 and Eq. 7. A single
// recommendation path is concatenated (Eq. 6: R·T, conservative — an
// un-earned recommender shrinks the reported trust toward zero); several
// paths combine by multipath aggregation (Eq. 7: recommendation-trust-
// weighted mean of the reported values). The boolean is false when no
// usable recommendation exists — none stored, none fresh, or the total
// recommendation mass ΣR below minMass — leaving the caller on the cold
// default.
func (l *Ledger) BootstrapTrust(subject addr.Node, now time.Duration) (float64, bool) {
	slot, ok := l.ix.Slot(subject)
	if !ok || slot >= len(l.rows) || len(l.rows[slot]) == 0 {
		return 0, false
	}
	// The row is already sorted by recommender — the iteration order the
	// map-backed table had to re-derive with a sort per bootstrap.
	recs := l.recsScratch[:0]
	var mass float64
	for _, r := range l.rows[slot] {
		if now-r.at > Freshness {
			continue // stale opinion (property 4)
		}
		rec := trust.Recommendation{R: l.rec.Get(r.from), T: r.trust}
		mass += rec.R
		recs = append(recs, rec)
	}
	l.recsScratch = recs
	if len(recs) == 0 || mass < minMass {
		return 0, false
	}
	if len(recs) == 1 {
		return trust.Concatenated(recs[0].R, recs[0].T), true
	}
	return trust.Multipath(recs)
}
