package auditlog

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
)

// FuzzParseLine: the log parser must never panic, and any line it accepts
// must render back to a line it accepts again (idempotent round trip).
// Log parsing is the IDS's input boundary.
func FuzzParseLine(f *testing.F) {
	r := Record{
		T: 2500 * time.Millisecond, Node: addr.NodeAt(1), Kind: KindHelloRx,
		Fields: []Field{
			FNode("from", addr.NodeAt(2)),
			FNodes("sym", []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}),
		},
	}
	f.Add(r.String())
	f.Add("t=0.000s node=10.0.0.1 kind=MPR_SET added= removed= mprs=")
	f.Add("")
	f.Add("garbage")
	f.Add("t=abc node=1 kind=")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := ParseLine(line)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is not a *ParseError: %v", err)
			}
			return
		}
		again, err := ParseLine(rec.String())
		if err != nil {
			t.Fatalf("accepted record does not re-parse: %v", err)
		}
		if again.Kind != rec.Kind || again.Node != rec.Node || len(again.Fields) != len(rec.Fields) {
			t.Fatalf("round trip changed the record: %+v vs %+v", again, rec)
		}
	})
}

// FuzzRecordRoundTrip drives the codec from the producer side: ANY record
// — including field keys and values holding separators, escapes, '=' and
// newlines — must encode to a line that decodes back to the identical
// record. This is the injectivity the sealed log's leaf hashing rests on:
// two different records must never share a rendering, and a rendering
// must never re-parse into a different record.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(2500), "HELLO_RX", "from", "10.0.0.2", "sym", "10.0.0.3,10.0.0.4")
	f.Add(int64(0), "K", "detail", "a b=c\nd%e", "k2", "")
	f.Add(int64(777), "MPR_SET", "", "", "t", "1.0s")
	f.Add(int64(-5), "X Y", "node", "10.0.0.9", "kind", "Z")
	f.Fuzz(func(t *testing.T, ms int64, kind, k1, v1, k2, v2 string) {
		if kind == "" {
			return // a record with no kind is invalid by construction
		}
		// Bound |T| so the 3-decimal seconds rendering is exact.
		ms %= int64(1) << 40
		r := Record{
			T:      time.Duration(ms) * time.Millisecond,
			Node:   addr.NodeAt(1 + int(uint64(ms)%250)), //nolint:gosec // bounded
			Kind:   Kind(kind),
			Fields: []Field{{Key: k1, Value: v1}, {Key: k2, Value: v2}},
		}
		got, err := ParseLine(r.String())
		if err != nil {
			t.Fatalf("encoded record %q does not decode: %v", r.String(), err)
		}
		if got.T != r.T || got.Node != r.Node || got.Kind != r.Kind {
			t.Fatalf("header changed: got %+v want %+v (line %q)", got, r, r.String())
		}
		if len(got.Fields) != len(r.Fields) {
			t.Fatalf("field count changed: got %+v want %+v (line %q)", got.Fields, r.Fields, r.String())
		}
		for i := range r.Fields {
			if got.Fields[i] != r.Fields[i] {
				t.Fatalf("field %d changed: got %+v want %+v (line %q)", i, got.Fields[i], r.Fields[i], r.String())
			}
		}
	})
}

// FuzzVerifyInclusion hammers the proof verifier with arbitrary paths and
// heads: it must never panic, and must never accept a proof for a head
// whose root was not derived from the leaf.
func FuzzVerifyInclusion(f *testing.F) {
	f.Add([]byte("leaf"), uint64(3), uint64(8), []byte("root"), []byte("pathpathpath"))
	f.Add([]byte(""), uint64(0), uint64(1), []byte(""), []byte(""))
	f.Fuzz(func(t *testing.T, leafData []byte, index, size uint64, rootData, pathData []byte) {
		leaf := LeafHash(leafData)
		var head TreeHead
		head.Size = size % (1 << 20)
		copy(head.Root[:], rootData)
		var proof Proof
		for i := 0; i+HashSize <= len(pathData) && i < 64*HashSize; i += HashSize {
			var h Hash
			copy(h[:], pathData[i:i+HashSize])
			proof.Path = append(proof.Path, h)
		}
		// A single-leaf tree is the only shape where an arbitrary head
		// could legitimately verify (root == leaf, empty path).
		if VerifyInclusion(leaf, index%(1<<20), head, proof) &&
			!(head.Size == 1 && head.Root == leaf && len(proof.Path) == 0) {
			t.Fatalf("arbitrary proof accepted: index %d size %d", index, head.Size)
		}
	})
}

// FuzzVerifyConsistency hammers the consistency verifier, which checks
// every tree head a peer gossips. It must not panic on any input. Then,
// for the sizes the input names, folded into a sealed reference Buffer,
// the honest heads and proof must verify, and flipping any one byte of
// them (either root or the path) must make verification fail. The seeds
// are honest heads and proofs cut from the same Buffer.
//
// Sizes are not bound by the hashes alone: a proof for 3 -> 7 also
// verifies when the new head claims size 6, so the raw input is held
// only to not panicking.
func FuzzVerifyConsistency(f *testing.F) {
	const logSize = 64
	var b Buffer
	b.SetSealKey(nil)
	for i := 0; i < logSize; i++ {
		b.Append(Record{Kind: KindTCTx, Fields: []Field{FInt("i", i)}})
	}
	honest := func(tb testing.TB, oldSize, newSize uint64) (TreeHead, TreeHead, Proof) {
		oldHead, err := b.TreeHeadAt(oldSize)
		if err != nil {
			tb.Fatal(err)
		}
		newHead, err := b.TreeHeadAt(newSize)
		if err != nil {
			tb.Fatal(err)
		}
		proof, err := b.ConsistencyProof(oldSize, newSize)
		if err != nil {
			tb.Fatal(err)
		}
		return oldHead, newHead, proof
	}
	for _, sizes := range [][2]uint64{{0, 5}, {1, 2}, {3, 7}, {4, 9}, {8, 8}, {13, 64}, {31, 33}} {
		oldHead, newHead, proof := honest(f, sizes[0], sizes[1])
		var path []byte
		for _, h := range proof.Path {
			path = append(path, h[:]...)
		}
		f.Add(oldHead.Size, oldHead.Root[:], newHead.Size, newHead.Root[:], path, uint16(0))
	}
	f.Fuzz(func(t *testing.T, oldSize uint64, oldRoot []byte, newSize uint64, newRoot []byte, pathData []byte, flip uint16) {
		old, head := TreeHead{Size: oldSize}, TreeHead{Size: newSize}
		copy(old.Root[:], oldRoot)
		copy(head.Root[:], newRoot)
		var proof Proof
		for i := 0; i+HashSize <= len(pathData) && i < 64*HashSize; i += HashSize {
			var h Hash
			copy(h[:], pathData[i:i+HashSize])
			proof.Path = append(proof.Path, h)
		}
		VerifyConsistency(old, head, proof)

		lo, hi := oldSize%(logSize+1), newSize%(logSize+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		realOld, realNew, real := honest(t, lo, hi)
		if !VerifyConsistency(realOld, realNew, real) {
			t.Fatalf("honest proof %d -> %d rejected", lo, hi)
		}
		if lo == 0 {
			return // the empty tree is consistent with any head
		}
		// Flip one bit of one byte of old root, new root or path.
		forged := Proof{Path: slices.Clone(real.Path)}
		at := int(flip) % (2*HashSize + len(real.Path)*HashSize)
		switch {
		case at < HashSize:
			realOld.Root[at] ^= 0x01
		case at < 2*HashSize:
			realNew.Root[at-HashSize] ^= 0x01
		default:
			p := at - 2*HashSize
			forged.Path[p/HashSize][p%HashSize] ^= 0x01
		}
		if VerifyConsistency(realOld, realNew, forged) {
			t.Fatalf("proof %d -> %d accepted with byte %d flipped", lo, hi, at)
		}
	})
}

// FuzzTreeProofs holds the sealed log's tree to the reference: a log of
// up to 2048 records, rewritten to keep the records whose sequence number
// mod 64 is a set bit of keep, must produce the reference head at size,
// inclusion proof of index and consistency proof from old, byte for
// byte, and both proofs must verify.
func FuzzTreeProofs(f *testing.F) {
	f.Add(uint16(0), ^uint64(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(7), ^uint64(0), uint16(3), uint16(7), uint16(6))
	f.Add(uint16(64), ^uint64(0), uint16(32), uint16(64), uint16(31))
	f.Add(uint16(300), uint64(0x5555_5555_5555_5555), uint16(77), uint16(150), uint16(149))
	f.Add(uint16(2048), uint64(0xffff_0000_ffff_fffe), uint16(1000), uint16(1537), uint16(1024))
	f.Fuzz(func(t *testing.T, count uint16, keep uint64, old, size, index uint16) {
		var b Buffer
		b.SetSealKey([]byte("fuzz"))
		var leaves []Hash
		for i := 0; i < int(count)%2049; i++ {
			r := Record{Kind: KindTCTx, Fields: []Field{FInt("i", i)}}
			b.Append(r)
			if keep&(1<<(i%64)) != 0 {
				leaves = append(leaves, LeafHash([]byte(r.String())))
			}
		}
		b.Rewrite(func(l Line) bool { return keep&(1<<(l.Seq%64)) != 0 })
		n := uint64(size) % uint64(len(leaves)+1)
		o := uint64(old) % (n + 1)
		i := uint64(index) % max(n, 1)
		if err := checkTree(&b, leaves, o, n, i); err != nil {
			t.Fatal(err)
		}
	})
}
