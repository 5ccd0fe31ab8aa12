package olsr

import (
	"slices"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/trace"
	"repro/internal/wire"
)

// seqNewer is the RFC 3626 §19 wraparound comparison, shared through the
// wire package (the reputation plane's gossip dedup uses the same rule).
func seqNewer(a, b uint16) bool { return wire.SeqNewer(a, b) }

// sendTC originates a Topology Control message advertising the node's MPR
// selectors. Nodes with no selectors stay silent (RFC 3626 §9.3 allows
// ceasing TC generation once an empty TC has drained; we keep the simpler
// variant of not transmitting, which the expiry of old tuples handles).
// The body is node scratch, rebuilt for every TC.
func (n *Node) sendTC() {
	tc := &n.tc
	tc.ANSN, tc.Advertised = n.ansn, n.MPRSelectors(tc.Advertised)
	if len(tc.Advertised) == 0 {
		return
	}
	n.tcTx++
	n.log(auditlog.KindTCTx,
		auditlog.FInt("ansn", int(tc.ANSN)),
		auditlog.FNodes("adv", tc.Advertised))
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Plane: trace.PlaneOLSR, Kind: trace.KindTCTx,
			Node: n.cfg.Addr.String(), V0: float64(tc.ANSN), V1: float64(len(tc.Advertised))})
	}
	n.broadcast(wire.Message{
		VTime:      topologyHold,
		Originator: n.cfg.Addr,
		TTL:        255,
		Seq:        n.nextMsgSeq(),
		Body:       tc,
	})
}

// processTC implements RFC 3626 §9.5: topology-set maintenance with ANSN
// freshness checking. The symmetric-sender requirement is enforced by the
// caller before the duplicate set is touched.
func (n *Node) processTC(sender addr.Node, m *wire.Message, tc *wire.TC) {
	now := n.now()
	vuntil := now + m.VTime

	e := n.topo.get(m.Originator)
	if e != nil && seqNewer(e.ansn, tc.ANSN) {
		n.dropMsg(sender, m, "stale")
		return
	}
	if e == nil {
		e = n.topo.put(m.Originator)
		e.next = never
	}
	if cap(e.dests) == 0 {
		e.dests = carve(&n.carved, len(tc.Advertised))
	}
	if seqNewer(tc.ANSN, e.ansn) {
		// Newer advertisement set: drop every tuple recorded under the old
		// ANSN (RFC 3626 §9.5 step 3).
		e.dests = e.dests[:0]
		e.next = never
	}
	e.ansn = tc.ANSN
	for _, d := range tc.Advertised {
		if d != n.cfg.Addr {
			*e.dests.put(d) = vuntil
		}
	}
	if len(e.dests) == 0 {
		// The next sweep drops an entry left without destinations, whatever
		// their expiry, so it must run at the next tick.
		e.next = now
	} else {
		e.next = min(e.next, vuntil)
	}
	n.noteExpiry(e.next)

	// Sorted-unique render of the advertised list (an attacker's TC may
	// carry duplicates), equivalent to NewSet(tc.Advertised...) without
	// the per-message allocation.
	adv := append(n.nodeScratch[:0], tc.Advertised...)
	slices.Sort(adv)
	n.nodeScratch = adv
	n.log(auditlog.KindTCRx,
		auditlog.FNode("orig", m.Originator),
		auditlog.FInt("ansn", int(tc.ANSN)),
		auditlog.FNodes("adv", slices.Compact(adv)))
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Plane: trace.PlaneOLSR, Kind: trace.KindTCRx,
			Node: n.cfg.Addr.String(), Peer: m.Originator.String(), V0: float64(tc.ANSN)})
	}

	n.afterTopologyChange()
}
