package core

// The reputation plane's transport (DESIGN.md §9): each participating
// node periodically floods its trust vector — honest nodes render their
// ledger (reputation.Ledger.AppendVector), dishonest recommenders forge
// one (attack.Recommender) — as a wire.Recommend message under the
// PayloadRecommend discriminator. Receivers dedup per origin by message
// sequence number, ingest the vector into their own ledger (deviation
// test, R updates), and relay the flood while it is news.
//
// Unlike investigation traffic this is a flood, not routed unicast, for
// the same reason tree-head gossip floods: a recommendation is for
// everyone, and a single dropping relay must not partition opinion. And
// unlike the evidence plane's heads, vectors carry no proofs — their
// integrity story is statistical (the deviation test), which is exactly
// the contrast §9 exists to study.

import (
	"repro/internal/addr"
	"repro/internal/detect"
	"repro/internal/reputation"
	"repro/internal/wire"
)

// ledgerBootstrap adapts a node's reputation ledger to the detector's
// TrustBootstrapper: Eq. 6/7 over the recommendations accepted so far,
// evaluated at the scheduler's current virtual time.
type ledgerBootstrap struct {
	node *Node
}

var _ detect.TrustBootstrapper = (*ledgerBootstrap)(nil)

// BootstrapTrust implements detect.TrustBootstrapper.
func (b *ledgerBootstrap) BootstrapTrust(x addr.Node) (float64, bool) {
	return b.node.Rep.BootstrapTrust(x, b.node.net.Sched.Now())
}

// handleRecommend processes one received recommendation payload.
func (n *Node) handleRecommend(body []byte) {
	if n.recSeen == nil {
		return // plane off at this node (never scheduled network-wide off)
	}
	pkt, err := n.recDec.Decode(body)
	if err != nil {
		n.net.ctrlDropped++
		return
	}
	for i := range pkt.Messages {
		m := &pkt.Messages[i]
		rec, ok := m.Body.(*wire.Recommend)
		if !ok || m.Originator == n.ID {
			continue
		}
		last, seen := n.recSeen[m.Originator]
		if seen && !wire.SeqNewer(m.Seq, last) {
			continue // duplicate or out-of-date copy: stop the flood
		}
		n.recSeen[m.Originator] = m.Seq
		if n.Rep != nil {
			// Ingest copies what it keeps, so the scratch entries (like the
			// arena-decoded rec itself) are safe to reuse next reception.
			entries := n.entScratch[:0]
			for _, e := range rec.Entries {
				entries = append(entries, reputation.Entry{About: e.About, Trust: e.TrustValue()})
			}
			n.entScratch = entries
			n.Rep.Ingest(m.Originator, entries, n.net.Sched.Now())
			n.net.ctrlDelivered++
		}
		if m.TTL > 1 {
			relay := *m
			relay.TTL--
			relay.HopCount++
			n.broadcastRecommend(relay)
		}
	}
}

// gossipRecommend emits this node's current trust vector: the forged one
// when a recommender attack is installed and active, the honest ledger
// rendering otherwise. Empty vectors are not flooded — a node with no
// explicit opinions has nothing to say.
func (n *Node) gossipRecommend() {
	var entries []reputation.Entry
	if n.Recommender != nil {
		entries = n.Recommender.Vector(n.net.Sched.Now())
	}
	if entries == nil && n.Rep != nil {
		entries = n.Rep.AppendVector(n.entScratch[:0])
		n.entScratch = entries
	}
	if len(entries) == 0 {
		return
	}
	body := &wire.Recommend{Entries: make([]wire.RecommendEntry, 0, len(entries))}
	for _, e := range entries {
		body.Entries = append(body.Entries, wire.RecommendEntry{
			About: e.About,
			Trust: wire.QuantizeTrust(e.Trust),
		})
	}
	n.recSeq++
	n.net.ctrlSent++
	n.broadcastRecommend(wire.Message{
		VTime:      reputation.Freshness,
		Originator: n.ID,
		TTL:        ctrlTTL,
		Seq:        n.recSeq,
		Body:       body,
	})
}

// broadcastRecommend frames one recommendation message in the node's
// transmit scratch and emits it as a one-hop broadcast.
func (n *Node) broadcastRecommend(m wire.Message) {
	pkt := &wire.Packet{Seq: m.Seq, Messages: []wire.Message{m}}
	n.txBuf = pkt.AppendTo(append(n.txBuf[:0], PayloadRecommend))
	n.net.Send(n.ID, addr.Broadcast, n.txBuf)
}
