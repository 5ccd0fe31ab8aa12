package olsr

import (
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
)

// never is the expiry of an empty table: no deadline at all.
const never = time.Duration(math.MaxInt64)

// noteExpiry lowers the sweep deadline to cover a tuple written with
// validity until t. Every write to a swept table calls it, so nextExpiry
// stays at or below the earliest expiry the sweep could act on.
func (n *Node) noteExpiry(t time.Duration) { n.nextExpiry = min(n.nextExpiry, t) }

// dupExpiry queues one duplicate tuple for the expiry check at time at.
type dupExpiry struct {
	at  time.Duration
	key dupKey
}

// dupQueue is a binary min-heap of duplicate-tuple expiry checks on at.
// It holds exactly one entry per tuple in the duplicate set, queued at or
// before the tuple's until (DESIGN.md §10.1).
type dupQueue []dupExpiry

func (q *dupQueue) push(e dupExpiry) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

// fix restores the heap order below index i after q[i].at grew.
func (q dupQueue) fix(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q[r].at < q[c].at {
			c = r
		}
		if q[i].at <= q[c].at {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// expireDups drops every duplicate tuple whose until has passed. Each
// popped check deletes a tuple that expired or re-queues it at its
// refreshed until, so the pass costs O(due checks), not O(|dups|).
func (n *Node) expireDups(now time.Duration) {
	q := n.dupQueue
	for len(q) > 0 && q[0].at <= now {
		if d := n.dups.get(q[0].key); d != nil && d.until > now {
			q[0].at = d.until
		} else {
			n.dups.delete(q[0].key)
			last := len(q) - 1
			q[0] = q[last]
			q = q[:last]
		}
		q.fix(0)
	}
	n.dupQueue = q
}

// expire is the periodic housekeeping pass: it drops every tuple whose
// validity time has elapsed and then re-derives MPRs and routes. The
// duplicate set is expired from its queue on every tick; the other tables
// are swept once nextExpiry has passed, because before that nothing in
// them has expired and the sweep would be a no-op. The sweep recomputes
// nextExpiry from the tuples that survive it.
func (n *Node) expire() {
	now := n.now()
	n.expireDups(now)
	if now < n.nextExpiry {
		return
	}
	next := never
	changed := false

	n.links.retain(func(x addr.Node, lt *linkTuple) bool {
		if until := max(lt.until, lt.asymUntil, lt.symUntil); until > now {
			next = min(next, until)
			return true
		}
		n.twoHop.delete(x)
		n.lastHelloSym.delete(x)
		changed = true
		return false
	})
	n.twoHop.retain(func(via addr.Node, cover *table[time.Duration]) bool {
		cover.retain(func(b addr.Node, until *time.Duration) bool {
			if *until > now {
				next = min(next, *until)
				return true
			}
			n.log(auditlog.KindTwoHopDown,
				auditlog.FNode("via", via), auditlog.FNode("twohop", b))
			changed = true
			return false
		})
		return len(*cover) > 0
	})
	// MPRSelectors reads only live selectors, so every record of this pass
	// carries the same set: one per expired selector.
	expired := 0
	n.selectors.retain(func(_ addr.Node, until *time.Duration) bool {
		if *until > now {
			next = min(next, *until)
			return true
		}
		expired++
		return false
	})
	for range expired {
		n.ansn++
		n.log(auditlog.KindMPRSelector,
			auditlog.FNodes("selectors", n.MPRSelectors(n.nodeScratch)))
	}
	n.topo.retain(func(_ addr.Node, e *topoEntry) bool {
		if e.next > now {
			next = min(next, e.next)
			return true
		}
		e.next = never
		e.dests.retain(func(_ addr.Node, until *time.Duration) bool {
			if *until <= now {
				changed = true
				return false
			}
			e.next = min(e.next, *until)
			return true
		})
		next = min(next, e.next)
		return len(e.dests) > 0
	})
	n.nextExpiry = next

	if changed {
		n.afterTopologyChange()
	}
}

// afterTopologyChange re-derives everything that depends on the link,
// 2-hop and topology sets: the symmetric neighborhood (logging up/down
// diffs), the MPR set (logging changes — the detector's E1 trigger), and
// the routing table. The route calculation itself is only marked stale
// here and runs lazily at the next Routes/RouteTo read — it has no side
// effects, control-plane lookups are orders of magnitude rarer than the
// control traffic that invalidates them, and a read-time table is never
// *staler* than the old eager snapshot (see routeTable).
//
// The neighborhood and MPR set are memoised: re-deriving them from
// unchanged inputs logs nothing and stores the same sets, so the pass is
// skipped unless an input write set mprStale or a live input may have
// expired since the last derivation (DESIGN.md §10.1).
func (n *Node) afterTopologyChange() {
	n.routesDirty = true
	if !n.mprStale && n.now() < n.mprValidUntil {
		return
	}
	n.mprStale = false
	n.mprDerivations++

	// Compare against the retained sets through scratch; allocate fresh
	// copies only when something actually changed.
	sym := n.SymNeighbors(n.nodeScratch)
	n.nodeScratch = sym
	if !sym.Equal(n.prevSym) {
		for _, x := range sym.Diff(n.prevSym) {
			n.log(auditlog.KindNeighborUp, auditlog.FNode("neighbor", x))
		}
		for _, x := range n.prevSym.Diff(sym) {
			n.log(auditlog.KindNeighborDown, auditlog.FNode("neighbor", x))
		}
		n.prevSym = sym.Clone()
	}

	// selectMPRs reuses nodeScratch, so it reads the retained copy.
	mprs, validUntil := n.selectMPRs(n.prevSym)
	n.mprValidUntil = validUntil
	if !mprs.Equal(n.mprs) {
		n.log(auditlog.KindMPRSet,
			auditlog.FNodes("added", mprs.Diff(n.mprs)),
			auditlog.FNodes("removed", n.mprs.Diff(mprs)),
			auditlog.FNodes("mprs", mprs))
		n.mprs = mprs.Clone()
	}
}
