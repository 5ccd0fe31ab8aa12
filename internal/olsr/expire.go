package olsr

import (
	"math"
	"slices"
	"time"

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
		if d := n.dups[q[0].key]; d.until > now {
			q[0].at = d.until
		} else {
			delete(n.dups, q[0].key)
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

	for x, lt := range n.links {
		if until := max(lt.until, lt.asymUntil, lt.symUntil); until > now {
			next = min(next, until)
			continue
		}
		delete(n.links, x)
		delete(n.twoHop, x)
		delete(n.lastHelloSym, x)
		changed = true
	}
	// The 2-hop and selector passes emit audit records, and record order
	// is observable (the log is hash-chained when sealing is armed), so
	// the expiring keys are collected and sorted before any tuple is
	// dropped — two tuples expiring in the same pass must log in the
	// same order every run (reprolint detmapiter; DESIGN.md §12).
	vias := n.viaScratch[:0]
	for via := range n.twoHop {
		vias = append(vias, via)
	}
	slices.Sort(vias)
	n.viaScratch = vias
	for _, via := range vias {
		cover := n.twoHop[via]
		down := n.nodeScratch[:0]
		for b, until := range cover {
			if until <= now {
				down = append(down, b)
			} else {
				next = min(next, until)
			}
		}
		slices.Sort(down)
		n.nodeScratch = down
		for _, b := range down {
			delete(cover, b)
			n.log(auditlog.KindTwoHopDown,
				auditlog.FNode("via", via), auditlog.FNode("twohop", b))
			changed = true
		}
		if len(cover) == 0 {
			delete(n.twoHop, via)
		}
	}
	expired := n.viaScratch[:0]
	for x, until := range n.selectors {
		if until <= now {
			expired = append(expired, x)
		} else {
			next = min(next, until)
		}
	}
	slices.Sort(expired)
	n.viaScratch = expired
	for _, x := range expired {
		delete(n.selectors, x)
		n.ansn++
		n.log(auditlog.KindMPRSelector,
			auditlog.FNodes("selectors", n.MPRSelectors(n.nodeScratch)))
	}
	for last, e := range n.topo {
		if e.next > now {
			next = min(next, e.next)
			continue
		}
		e.next = never
		for d, until := range e.dests {
			if until <= now {
				delete(e.dests, d)
				changed = true
			} else {
				e.next = min(e.next, until)
			}
		}
		if len(e.dests) == 0 {
			delete(n.topo, last)
		} else {
			next = min(next, e.next)
		}
	}
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
