package core

import (
	"slices"
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

	proof, err := log.ConsistencyProof(nil, 3, 7)
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

// FuzzConsistencyMemo holds the gossip verification memo to
// auditlog.VerifyConsistency: over one memo, a run of calls whose inputs
// repeat, differ in one bit, or come raw from the fuzzer must each get
// the verdict a direct call gives. The calls are, in order: an honest
// old -> new proof cut from a 64-record log; the same inputs with one
// bit of the old root, the new root or the proof path flipped in place,
// in the caller's own slice; the honest inputs again; the new head
// against itself with the honest proof and then with that proof flipped
// (equal heads, a proof one byte apart); and the raw path.
func FuzzConsistencyMemo(f *testing.F) {
	const logSize = 64
	var log auditlog.Buffer
	log.SetSealKey(nil)
	for i := range logSize {
		log.Append(auditlog.Record{Kind: auditlog.KindTCTx, Fields: []auditlog.Field{auditlog.FInt("i", i)}})
	}
	f.Add(uint8(3), uint8(7), uint16(0), []byte{})
	f.Add(uint8(7), uint8(3), uint16(70), []byte{})
	f.Add(uint8(8), uint8(8), uint16(33), make([]byte, auditlog.HashSize))
	f.Add(uint8(13), uint8(64), uint16(100), make([]byte, 3*auditlog.HashSize))
	f.Add(uint8(0), uint8(5), uint16(7), []byte("not a hash"))
	f.Fuzz(func(t *testing.T, oldSize, newSize uint8, flip uint16, raw []byte) {
		lo, hi := uint64(oldSize)%(logSize+1), uint64(newSize)%(logSize+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		known, err := log.TreeHeadAt(lo)
		if err != nil {
			t.Fatal(err)
		}
		head, err := log.TreeHeadAt(hi)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := log.ConsistencyProof(nil, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var memo consistencyMemo
		check := func(call string, known, head auditlog.TreeHead, proof auditlog.Proof) {
			t.Helper()
			if got, want := memo.verify(known, head, proof), auditlog.VerifyConsistency(known, head, proof); got != want {
				t.Fatalf("%s %d -> %d: memo says %v, VerifyConsistency %v", call, lo, hi, got, want)
			}
		}
		check("honest", known, head, proof)

		honest := slices.Clone(proof.Path)
		flipped, flippedHead := known, head
		at := int(flip) % (2*auditlog.HashSize + len(proof.Path)*auditlog.HashSize)
		switch {
		case at < auditlog.HashSize:
			flipped.Root[at] ^= 0x01
		case at < 2*auditlog.HashSize:
			flippedHead.Root[at-auditlog.HashSize] ^= 0x01
		default:
			p := at - 2*auditlog.HashSize
			proof.Path[p/auditlog.HashSize][p%auditlog.HashSize] ^= 0x01
		}
		check("flipped", flipped, flippedHead, proof)
		check("honest again", known, head, auditlog.Proof{Path: honest})

		check("equal heads", head, head, auditlog.Proof{Path: honest})
		if len(honest) > 0 {
			honest[len(honest)-1][flip%auditlog.HashSize] ^= 0x01
		}
		check("equal heads, proof one byte apart", head, head, auditlog.Proof{Path: honest})

		var path []auditlog.Hash
		for i := 0; i+auditlog.HashSize <= len(raw) && i < 64*auditlog.HashSize; i += auditlog.HashSize {
			path = append(path, auditlog.Hash(raw[i:i+auditlog.HashSize]))
		}
		check("raw path", known, head, auditlog.Proof{Path: path})
	})
}
