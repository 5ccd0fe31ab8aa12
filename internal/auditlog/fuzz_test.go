package auditlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
			Fields: []Field{F(k1, v1), F(k2, v2)},
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
			if g, w := fieldText(got.Fields[i]), fieldText(r.Fields[i]); g != w {
				t.Fatalf("field %d changed: got %q want %q (line %q)", i, g, w, r.String())
			}
		}
	})
}

// FuzzTypedFields holds the typed fields to the free-text rendering they
// replace. raw is read five bytes to a node: a selector byte picks None
// or Broadcast, a host in or past the interned range, any address, or a
// repeat of the previous node, and the next four bytes give the value.
// FNodes of the list must render byte-identically to F of the
// comma-joined Strings, FNode of its first node to F of its String, and
// FInt to F of strconv.Itoa; the line must decode back, through
// ParseLine and through a Buffer's Line, to the same nodes and integer.
func FuzzTypedFields(f *testing.F) {
	f.Add("adv", []byte{}, 0)
	f.Add("sym", []byte{1, 0, 0, 0, 3, 1, 0, 0, 3, 255, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0}, -7)
	f.Add("a b=%", []byte{2, 10, 0, 4, 0, 2, 255, 255, 255, 254, 1, 0, 0, 4, 1}, 1<<40)
	f.Fuzz(func(t *testing.T, key string, raw []byte, v int) {
		var nodes []addr.Node
		for ; len(raw) >= 5; raw = raw[5:] {
			x := binary.BigEndian.Uint32(raw[1:])
			var n addr.Node
			switch raw[0] % 5 {
			case 0:
				n = addr.None
			case 1:
				n = addr.Broadcast
			case 2:
				n = addr.NodeAt(int(x % 2048))
			case 3:
				n = addr.Node(x)
			default:
				if len(nodes) > 0 {
					n = nodes[len(nodes)-1]
				}
			}
			nodes = append(nodes, n)
		}
		names := make([]string, len(nodes))
		for i, n := range nodes {
			names[i] = n.String()
		}
		first := addr.None
		if len(nodes) > 0 {
			first = nodes[0]
		}
		typed := []Field{FNodes(key, nodes), FNode(key+"1", first), FInt(key+"2", v)}
		text := []Field{F(key, strings.Join(names, ",")), F(key+"1", first.String()), F(key+"2", strconv.Itoa(v))}
		for i := range typed {
			if g, w := fieldText(typed[i]), fieldText(text[i]); g != w {
				t.Fatalf("typed field renders %q, free text %q", g, w)
			}
		}
		r := Record{T: time.Second, Node: first, Kind: KindTCRx, Fields: typed}
		line := r.String()
		if want := (&Record{T: r.T, Node: r.Node, Kind: r.Kind, Fields: text}).String(); line != want {
			t.Fatalf("typed record renders %q, free text %q", line, want)
		}
		decoded, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		var b Buffer
		b.Append(r)
		l, _ := b.LineAt(0)
		if l.Text != line {
			t.Fatalf("stored line %q, rendered %q", l.Text, line)
		}
		wantNodes := nodes
		if len(wantNodes) == 0 {
			wantNodes = nil
		}
		// The line parses its lists into stale scratch, which must not
		// leak into the result.
		lineNodes := func(key string) ([]addr.Node, error) {
			return l.NodesField(key, []addr.Node{addr.Broadcast, addr.Broadcast})
		}
		for _, get := range []struct {
			name  string
			raw   func(string) (string, bool)
			nodes func(string) ([]addr.Node, error)
			node  func(string) (addr.Node, error)
		}{
			{"built", r.Get, r.NodesField, r.NodeField},
			{"decoded", decoded.Get, decoded.NodesField, decoded.NodeField},
			{"line", l.Get, lineNodes, l.NodeField},
		} {
			for i := range text {
				if got, ok := get.raw(text[i].Key); !ok || got != text[i].value() {
					t.Fatalf("%s Get(%q) = %q, %v, want %q", get.name, text[i].Key, got, ok, text[i].value())
				}
			}
			if got, ok := get.raw(key + "3"); ok {
				t.Fatalf("%s Get(%q) = %q on an absent key", get.name, key+"3", got)
			}
			if got, err := get.nodes(key); err != nil || !slices.Equal(got, wantNodes) {
				t.Fatalf("%s NodesField(%q) = %v, %v, want %v", get.name, key, got, err, wantNodes)
			}
			if got, err := get.node(key + "1"); err != nil || got != first {
				t.Fatalf("%s NodeField(%q) = %v, %v, want %v", get.name, key+"1", got, err, first)
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
		proof, err := b.ConsistencyProof(nil, oldSize, newSize)
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
// byte, and both proofs must verify. Every seal level must equal a full
// reseal of the kept records.
func FuzzTreeProofs(f *testing.F) {
	f.Add(uint16(0), ^uint64(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(7), ^uint64(0), uint16(3), uint16(7), uint16(6))
	f.Add(uint16(64), ^uint64(0), uint16(32), uint16(64), uint16(31))
	f.Add(uint16(300), uint64(0x5555_5555_5555_5555), uint16(77), uint16(150), uint16(149))
	f.Add(uint16(2048), uint64(0xffff_0000_ffff_fffe), uint16(1000), uint16(1537), uint16(1024))
	f.Fuzz(func(t *testing.T, count uint16, keep uint64, old, size, index uint16) {
		var b Buffer
		b.SetSealKey(nil)
		var leaves []Hash
		for i := 0; i < int(count)%2049; i++ {
			r := Record{Kind: KindTCTx, Fields: []Field{FInt("i", i)}}
			b.Append(r)
			if keep&(1<<(i%64)) != 0 {
				leaves = append(leaves, LeafHash([]byte(r.String())))
			}
		}
		b.Rewrite(func(l Line) bool { return keep&(1<<(l.Seq%64)) != 0 })
		if err := resealLevels(&b); err != nil {
			t.Fatal(err)
		}
		n := uint64(size) % uint64(len(leaves)+1)
		o := uint64(old) % (n + 1)
		i := uint64(index) % max(n, 1)
		if err := checkTree(&b, leaves, o, n, i); err != nil {
			t.Fatal(err)
		}
	})
}

// resealLevels rebuilds b's Merkle tree from scratch, from every stored
// line, and reports the first level entry where b's kept-and-resealed
// tree differs from it. Levels past the rebuilt tree's height must be
// empty.
func resealLevels(b *Buffer) error {
	var fresh seal
	for i := range b.Len() {
		fresh.append(append([]byte{prefixLeaf}, b.line(i).Text...))
	}
	for l := range max(len(b.seal.levels), len(fresh.levels)) {
		var got, want []Hash
		if l < len(b.seal.levels) {
			got = b.seal.levels[l]
		}
		if l < len(fresh.levels) {
			want = fresh.levels[l]
		}
		if len(got) != len(want) {
			return fmt.Errorf("level %d holds %d nodes, a full reseal %d", l, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("level %d node %d = %v, a full reseal %v", l, i, got[i], want[i])
			}
		}
	}
	return nil
}

// FuzzRewrite holds Rewrite's partial reseal to a full one across two
// forger-style rewrites in a row with appends between them. Each rewrite
// erases the record at drop (an index past the end erases nothing) and
// every later record whose distance from it is a set bit of mask mod 64,
// then plants add fresh records. After each rewrite every seal level
// must equal a from-scratch reseal of the stored lines, and the heads
// and proofs at old, size and index must match the reference.
func FuzzRewrite(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint64(0), uint8(0), uint8(0), uint16(0), uint64(0), uint8(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(12), uint16(3), uint64(0), uint8(1), uint8(5), uint16(12), uint64(0), uint8(2), uint16(4), uint16(13), uint16(7))
	f.Add(uint16(64), uint16(64), uint64(0), uint8(3), uint8(0), uint16(0), uint64(1), uint8(0), uint16(32), uint16(66), uint16(65))
	f.Add(uint16(300), uint16(256), uint64(0x8000_0000_0000_0001), uint8(2), uint8(40), uint16(255), uint64(0x5555), uint8(7), uint16(100), uint16(341), uint16(200))
	f.Add(uint16(2048), uint16(1537), uint64(0xffff), uint8(4), uint8(9), uint16(2047), uint64(0), uint8(1), uint16(1024), uint16(2048), uint16(1536))
	f.Fuzz(func(t *testing.T, count, drop1 uint16, mask1 uint64, add1, between uint8,
		drop2 uint16, mask2 uint64, add2 uint8, old, size, index uint16) {
		var b Buffer
		b.SetSealKey(nil)
		var recs []Record // the reference history
		next := 0
		record := func() Record {
			next++
			return Record{Kind: KindTCTx, Fields: []Field{FInt("i", next)}}
		}
		for range int(count) % 2049 {
			r := record()
			b.Append(r)
			recs = append(recs, r)
		}
		rewrite := func(drop uint16, mask uint64, add uint8) {
			at := int(drop) % (len(recs) + 1)
			erased := func(i int) bool { return i == at || i > at && mask&(1<<((i-at)%64)) != 0 }
			var kept []Record
			for i, r := range recs {
				if !erased(i) {
					kept = append(kept, r)
				}
			}
			var planted []Record
			for range add % 9 {
				planted = append(planted, record())
			}
			recs = append(kept, planted...)
			b.Rewrite(func(l Line) bool { return !erased(int(l.Seq)) }, planted...) //nolint:gosec // bounded by len
			if err := resealLevels(&b); err != nil {
				t.Fatal(err)
			}
			leaves := make([]Hash, len(recs))
			for i, r := range recs {
				leaves[i] = LeafHash([]byte(r.String()))
			}
			n := uint64(size) % uint64(len(leaves)+1)
			o := uint64(old) % (n + 1)
			if err := checkTree(&b, leaves, o, n, uint64(index)%max(n, 1)); err != nil {
				t.Fatal(err)
			}
		}
		rewrite(drop1, mask1, add1)
		for range between {
			r := record()
			b.Append(r)
			recs = append(recs, r)
		}
		rewrite(drop2, mask2, add2)
	})
}
