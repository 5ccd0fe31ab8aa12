package core

import (
	"slices"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/detect"
)

// ctrlKind discriminates control-plane message types. The values are
// the envelope's on-air kind byte (ctrlwire.go).
type ctrlKind uint8

const (
	ctrlVerifyReq ctrlKind = 1
	ctrlVerifyRep ctrlKind = 2
	// ctrlTreeHead is the evidence plane's gossip: an origin floods its
	// sealed-log tree head, chained to its previous broadcast by a
	// consistency proof, so every receiver can prove the origin's log
	// only ever grew (DESIGN.md §8).
	ctrlTreeHead ctrlKind = 3
)

// ctrlMsg is the control-plane envelope, forwarded hop by hop using each
// relay's OLSR routing table, avoiding the nodes listed in Avoid.
// Tree-head gossip uses the same envelope but floods: To is Broadcast
// and relays rebroadcast each origin's head at most once per growth.
type ctrlMsg struct {
	Kind  ctrlKind
	From  addr.Node
	To    addr.Node
	TTL   int
	Avoid []addr.Node
	Req   *detect.VerifyRequest
	Rep   *detect.VerifyReply
	// Origin is the node whose tree head is gossiped (From is the relay).
	Origin addr.Node
	Head   *auditlog.TreeHead
	// HeadPrev is the size of the origin's previous broadcast, the old
	// side of HeadProof.
	HeadPrev  uint64
	HeadProof *auditlog.Proof
}

// nodeTransport implements detect.Transport for one node.
type nodeTransport struct {
	node *Node
}

var _ detect.Transport = (*nodeTransport)(nil)

// SendVerify implements detect.Transport.
func (t *nodeTransport) SendVerify(req detect.VerifyRequest) {
	r := req
	t.node.sendCtrl(&ctrlMsg{
		Kind:  ctrlVerifyReq,
		From:  t.node.ID,
		To:    req.Responder,
		TTL:   t.node.net.cfg.CtrlTTL,
		Avoid: req.Avoid,
		Req:   &r,
	})
}

// sendCtrl originates or forwards a control message from this node.
func (n *Node) sendCtrl(m *ctrlMsg) {
	n.net.ctrlSent++
	n.forwardCtrl(m)
}

// forwardCtrl picks the next hop toward m.To, honoring the avoidance list
// of Algorithm 1: prefer the normal route; if its next hop must be
// avoided, try another symmetric neighbor that covers the destination;
// finally any symmetric neighbor advertising a path (multi-hop detour).
// With no usable hop the message is dropped — the investigator's timeout
// turns that into evidence 0 ("not verified"), the paper's E3 situation.
func (n *Node) forwardCtrl(m *ctrlMsg) {
	if m.To == n.ID {
		n.deliverCtrl(m)
		return
	}
	if m.TTL <= 0 {
		n.net.ctrlDropped++
		return
	}
	m.TTL--

	// Avoid lists are a handful of nodes; a linear scan beats building a
	// set per hop.
	next := addr.None

	// Direct neighbor?
	if n.Router.IsSymNeighbor(m.To) && !slices.Contains(m.Avoid, m.To) {
		next = m.To
	}
	// Normal route, if its next hop is allowed.
	if next == addr.None {
		if r, ok := n.Router.RouteTo(m.To); ok && !slices.Contains(m.Avoid, r.NextHop) {
			next = r.NextHop
		}
	}
	// Any other symmetric neighbor that covers the destination (an
	// alternative MPR in the paper's terms).
	if next == addr.None {
		n.nbScratch = n.Router.SymNeighborsSorted(n.nbScratch[:0])
		for _, nb := range n.nbScratch {
			if nb == m.From || slices.Contains(m.Avoid, nb) {
				continue
			}
			if n.Router.Covers(nb, m.To) {
				next = nb
				break
			}
		}
	}
	if next == addr.None {
		n.net.ctrlDropped++
		return
	}

	n.net.traceSend(n.ID, "ctrl")
	n.net.Medium.Send(n.ID, next, n.encodeCtrl(m))
}

// encodeCtrl renders the on-air form of m, PayloadCtrl discriminator
// included. It builds into the node's scratch (amortizing growth) and
// returns an exact-size copy, because the medium retains the payload
// until delivery.
func (n *Node) encodeCtrl(m *ctrlMsg) []byte {
	n.ctrlBuf = appendCtrlMsg(append(n.ctrlBuf[:0], PayloadCtrl), m)
	return slices.Clone(n.ctrlBuf)
}

// handleCtrl processes a received control payload: deliver locally or
// relay onward. A malformed envelope is dropped; a misbehaving relay may
// silently discard a valid one.
func (n *Node) handleCtrl(body []byte) {
	m, err := decodeCtrlMsg(body)
	if err != nil {
		n.net.ctrlDropped++
		return
	}
	if m.Kind == ctrlTreeHead {
		n.handleTreeHead(m)
		return
	}
	if m.To != n.ID && n.dropControl {
		// The suspect (or a colluder) swallowing investigation traffic —
		// exactly what the Avoid list exists to prevent.
		n.net.ctrlDropped++
		return
	}
	n.forwardCtrl(m)
}

// gossipHead floods this node's current tree head, anchored to its
// previous broadcast by a consistency proof.
func (n *Node) gossipHead() {
	head := n.Logs.TreeHead()
	m := &ctrlMsg{
		Kind:   ctrlTreeHead,
		From:   n.ID,
		To:     addr.Broadcast,
		TTL:    n.net.cfg.CtrlTTL,
		Origin: n.ID,
		Head:   &head,
	}
	if n.prevGossip > 0 && n.prevGossip <= head.Size {
		if proof, err := n.Logs.ConsistencyProof(n.prevGossip, head.Size); err == nil {
			m.HeadPrev = n.prevGossip
			m.HeadProof = &proof
		}
	}
	n.prevGossip = head.Size
	n.net.ctrlSent++
	n.broadcastTreeHead(m)
}

// broadcastTreeHead emits the gossip frame one hop in every direction.
func (n *Node) broadcastTreeHead(m *ctrlMsg) {
	n.net.traceSend(n.ID, "ctrl")
	n.net.Medium.Send(n.ID, addr.Broadcast, n.encodeCtrl(m))
}

// handleTreeHead processes one gossiped tree head: verify it against the
// last accepted head of the same origin, record it, hand any
// inconsistency to the local detector as forged evidence, and relay the
// flood while the head is news.
//
// Acceptance is conservative: a head only replaces the recorded one when
// its consistency proof anchors at exactly the recorded size. A missed
// broadcast therefore pins the receiver at an older head — which is
// safe, because reply verification (detect.Detector.verifyEvidence)
// bridges any gap with a consistency proof from the pinned size. What a
// forger cannot do is advance anyone's recorded head past its rewrite:
// the proof would have to link the honest old root to the forged tree.
//
// Tainting follows the transparency-log rule: punish only evidence that
// could not coexist with an honest log — a conflicting root at the
// recorded size, or a growth proof that fails against it. A STALE head
// (size below the recorded one) is never punished: a delayed or
// replayed copy of the origin's own genuine old gossip is
// indistinguishable from a rewrite, so staleness is old news, not
// evidence. A rewrite that shrank the log is still caught, just
// attributably — at reply time, where the head is bound to a fresh
// request and cannot be a replay. Gossip-level taint (like every
// split-view check in the literature) additionally assumes heads are
// origin-authentic — real deployments sign them; this testbed, which
// authenticates no traffic anywhere, models that by not giving any
// attacker a forge-gossip behavior.
func (n *Node) handleTreeHead(m *ctrlMsg) {
	if m.Head == nil || m.Origin == addr.None || m.Origin == n.ID || n.heads == nil {
		return
	}
	if n.gossipTainted.Has(m.Origin) {
		return // a known forger's gossip is dead to us
	}
	known, seen := n.heads[m.Origin]
	if !seen {
		// First contact: trust on first sight, like every transparency
		// log bootstrap.
		n.net.ctrlDelivered++
		n.heads[m.Origin] = *m.Head
		n.relayTreeHead(m)
		return
	}
	switch {
	case m.Head.Size < known.Size:
		return // stale: old news (or a replay), never evidence
	case m.Head.Size == known.Size:
		if m.Head.Root != known.Root {
			// Two heads for one size that cannot both be honest: the
			// classic split view, attributable to the origin.
			n.taintOrigin(m.Origin)
		}
		return // equal heads: no news, stop the flood
	}
	// The head grew: accept only when the proof chains from exactly our
	// recorded head.
	if m.HeadProof == nil || m.HeadPrev != known.Size {
		return // unverifiable against our view; stay pinned
	}
	if !auditlog.VerifyConsistency(known, *m.Head, *m.HeadProof) {
		n.taintOrigin(m.Origin)
		return
	}
	n.net.ctrlDelivered++
	n.heads[m.Origin] = *m.Head
	n.relayTreeHead(m)
}

// taintOrigin marks an origin as a caught forger and convicts it locally.
func (n *Node) taintOrigin(origin addr.Node) {
	n.gossipTainted.Add(origin)
	if n.Detector != nil {
		n.Detector.ReportForgedEvidence(origin, "gossiped tree head inconsistent with history")
	}
}

// relayTreeHead continues the flood.
func (n *Node) relayTreeHead(m *ctrlMsg) {
	if m.TTL <= 0 {
		return
	}
	relay := *m
	relay.TTL--
	relay.From = n.ID
	n.broadcastTreeHead(&relay)
}

// deliverCtrl hands a control message to its local consumer.
func (n *Node) deliverCtrl(m *ctrlMsg) {
	switch m.Kind {
	case ctrlVerifyReq:
		if m.Req == nil {
			return
		}
		n.net.ctrlDelivered++
		rep := n.Responder.Answer(*m.Req)
		n.sendCtrl(&ctrlMsg{
			Kind:  ctrlVerifyRep,
			From:  n.ID,
			To:    m.Req.Investigator,
			TTL:   n.net.cfg.CtrlTTL,
			Avoid: m.Avoid,
			Rep:   &rep,
		})
	case ctrlVerifyRep:
		if m.Rep == nil || n.Detector == nil {
			return
		}
		n.net.ctrlDelivered++
		n.Detector.HandleReply(*m.Rep)
	}
}
