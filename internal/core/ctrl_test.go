package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/signature"
)

// TestGossipHeadSizeNotBoundToRoot pins what handleTreeHead does with a
// head whose size is not bound to its root. RFC 9162 consistency
// verification accepts a 3 → 7 proof for a head that claims size 6 with
// the size-7 root, so such a head is recorded; a later replay of the
// origin's genuine size-6 head then meets a different root at the
// recorded size and takes the split-view branch, tainting an honest
// origin. Reaching that state needs a forged gossip head, which the
// origin-authentic gossip model excludes (DESIGN.md §8.2).
func TestGossipHeadSizeNotBoundToRoot(t *testing.T) {
	receiver, origin := addr.NodeAt(1), addr.NodeAt(2)
	w := logsNetwork(true, false, func(id addr.Node) bool { return id == receiver })
	n := w.Node(receiver)

	var log auditlog.Buffer
	log.SetSealKey(nil)
	for i := range 7 {
		log.Append(auditlog.Record{Kind: auditlog.KindHelloTx, Node: origin,
			Fields: []auditlog.Field{auditlog.FInt("i", i)}})
	}
	head := func(size uint64) auditlog.TreeHead {
		h, err := log.TreeHeadAt(size)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	r3, r6, r7 := head(3), head(6), head(7)
	gossip := func(h auditlog.TreeHead, prev uint64, proof *auditlog.Proof) {
		n.handleTreeHead(&ctrlMsg{Kind: ctrlTreeHead, From: origin, To: addr.Broadcast,
			Origin: origin, Head: &h, HeadPrev: prev, HeadProof: proof})
	}

	gossip(r3, 0, nil)
	if got := n.heads[origin]; got != r3 {
		t.Fatalf("first contact recorded %v, want %v", got, r3)
	}

	proof, err := log.ConsistencyProof(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	claimed := auditlog.TreeHead{Size: 6, Root: r7.Root}
	if !auditlog.VerifyConsistency(r3, claimed, proof) {
		t.Fatal("premise: the 3 → 7 proof does not verify a size-6 head with the size-7 root")
	}
	gossip(claimed, 3, &proof)
	if got := n.heads[origin]; got != claimed {
		t.Fatalf("recorded %v after the mis-sized head, want %v", got, claimed)
	}
	if n.gossipTainted.Has(origin) {
		t.Fatal("the mis-sized head tainted its origin")
	}

	gossip(r6, 0, nil)
	if !n.gossipTainted.Has(origin) {
		t.Fatal("a replayed genuine size-6 head did not take the split-view branch")
	}
	alerts := n.Detector.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != signature.RuleEvidenceForged || alerts[0].Subject != origin {
		t.Fatalf("detector alerts %v, want one forged-evidence alert on %v", alerts, origin)
	}
}
