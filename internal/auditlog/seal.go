// Tamper-evident sealing of the audit log.
//
// The paper's IDS trusts the routing daemon's own log — which makes the
// log itself an attack surface: a compromised responder can rewrite its
// history and "prove" anything it likes. Sealing makes that rewriting
// *evident* with an incremental Merkle tree (sigsum/RFC 6962-style): the
// sealed records are the tree's leaves, and the log exposes TreeHead,
// InclusionProof and ConsistencyProof. Tree heads are gossiped; replies
// to investigations cite records together with inclusion proofs against
// the responder's current head plus a consistency proof from the head the
// investigator already knows. A forger who rewrote history cannot link
// its new head to any previously gossiped one, so its testimony is
// rejected (internal/detect).
//
// Leaves are the canonical text rendering of each record (Record.String),
// the same bytes the Buffer stores — which is why the codec's escaping
// matters: two different records must never share a rendering.
package auditlog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// HashSize is the byte length of every digest used by the sealed log.
const HashSize = sha256.Size

// Hash is a SHA-256 digest.
type Hash [HashSize]byte

// String renders the digest as hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Domain-separation prefixes for leaves and interior nodes, as in RFC
// 6962.
const (
	prefixLeaf byte = 0x00
	prefixNode byte = 0x01
)

// LeafHash hashes one leaf datum (a canonical record line) the RFC 6962
// way: H(0x00 || data).
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{prefixLeaf})
	h.Write(data)
	var out Hash
	copy(out[:], h.Sum(out[:0]))
	return out
}

// nodeHash combines two subtree heads: H(0x01 || left || right).
func nodeHash(left, right Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = prefixNode
	copy(buf[1:], left[:])
	copy(buf[1+HashSize:], right[:])
	return sha256.Sum256(buf[:])
}

// TreeHead is the Merkle root over the first Size sealed records — what a
// node gossips, and what proofs verify against.
type TreeHead struct {
	Size uint64
	Root Hash
}

// Proof is a Merkle audit path, leaf-to-root order.
type Proof struct {
	Path []Hash
}

// emptyRoot is MTH({}) = H(""): the empty tree has a defined head so a
// brand new log can already gossip.
var emptyRoot = Hash(sha256.Sum256(nil))

// splitPoint returns the largest power of two strictly less than n (n ≥ 2).
func splitPoint(n int) int { return 1 << (bits.Len(uint(n-1)) - 1) }

// VerifyInclusion checks that leaf sits at index in the tree head (RFC
// 9162 §2.1.3.2).
func VerifyInclusion(leaf Hash, index uint64, head TreeHead, proof Proof) bool {
	if index >= head.Size {
		return false
	}
	fn, sn := index, head.Size-1
	r := leaf
	for _, p := range proof.Path {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn&1 == 0 {
				for fn&1 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == head.Root
}

// VerifyConsistency checks that the tree behind new is an append-only
// extension of the tree behind old (RFC 9162 §2.1.4.2). Equal heads are
// consistent with an empty proof; an old size of zero is consistent with
// anything.
func VerifyConsistency(old, new TreeHead, proof Proof) bool {
	if old.Size > new.Size {
		return false
	}
	if old.Size == new.Size {
		return old.Root == new.Root
	}
	if old.Size == 0 {
		// The empty tree is a prefix of every tree.
		return true
	}
	path := proof.Path
	// When the old size is an exact power of two, the old root is itself
	// the first component of the walk.
	fn, sn := old.Size-1, new.Size-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	var fr, sr Hash
	if fn == 0 {
		// old.Size is a power of two: start from the old root itself.
		fr, sr = old.Root, old.Root
	} else {
		if len(path) == 0 {
			return false
		}
		fr, sr = path[0], path[0]
		path = path[1:]
	}
	for _, p := range path {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(p, fr)
			sr = nodeHash(p, sr)
			if fn&1 == 0 {
				for fn&1 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == old.Root && sr == new.Root
}

// seal is the tamper-evidence state of a Buffer: the log's Merkle tree,
// indexed by sequence number.
type seal struct {
	enabled bool // armed by SetSealKey; unarmed buffers seal nothing

	// levels is the Merkle tree: levels[0] holds the leaf hashes and
	// levels[l][i] the root of the perfect subtree over leaves
	// [i<<l, (i+1)<<l). Every head and proof reads its subtree roots from
	// here (subtree), for under one extra hash per leaf.
	levels [][]Hash
}

// leaves returns the leaf hash of every sealed record.
func (s *seal) leaves() []Hash {
	if len(s.levels) == 0 {
		return nil
	}
	return s.levels[0]
}

// append seals one record, given as its canonical line prefixed with
// prefixLeaf: the leaf hash and one node hash per perfect subtree the
// leaf completes — the per-record hot path BenchmarkSealedAppend prices,
// with zero allocations (the levels appends amortize into retained
// capacity).
//
//repro:allocfree
func (s *seal) append(leafInput []byte) {
	h := Hash(sha256.Sum256(leafInput))
	for l := 0; ; l++ {
		if l == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		level := append(s.levels[l], h)
		s.levels[l] = level
		n := len(level)
		if n%2 == 1 {
			return
		}
		h = nodeHash(level[n-2], level[n-1])
	}
}

// subtree returns the RFC 6962 root over leaves [lo, hi). lo must be a
// multiple of the largest power of two in hi-lo, as it is for every
// range the RFC recursion visits: the range is then a run of aligned
// perfect subtrees, one per set bit of hi-lo in decreasing size, each
// one entry of levels. The root folds them right to left, from the
// piece of the lowest set bit, in O(log n) hashes.
func (s *seal) subtree(lo, hi int) Hash {
	if lo == hi {
		return emptyRoot
	}
	l := bits.TrailingZeros(uint(hi - lo))
	hi -= 1 << l
	r := s.levels[l][hi>>l]
	for hi > lo {
		l = bits.TrailingZeros(uint(hi - lo))
		hi -= 1 << l
		r = nodeHash(s.levels[l][hi>>l], r)
	}
	return r
}

// inclusionPath appends the RFC 6962 audit path for leaf m of the tree
// over leaves [lo, hi) to dst, leaf-to-root.
//
//repro:allocfree
func (s *seal) inclusionPath(dst []Hash, m, lo, hi int) []Hash {
	if hi-lo <= 1 {
		return dst
	}
	k := lo + splitPoint(hi-lo)
	if m < k {
		return append(s.inclusionPath(dst, m, lo, k), s.subtree(k, hi))
	}
	return append(s.inclusionPath(dst, m, k, hi), s.subtree(lo, k))
}

// subProof appends the RFC 6962 SUBPROOF between the tree over leaves
// [lo, m) and the tree over [lo, hi) to dst; complete says whether
// [lo, m) is a whole tree the verifier already holds the root of.
//
//repro:allocfree
func (s *seal) subProof(dst []Hash, m, lo, hi int, complete bool) []Hash {
	if m == hi {
		if complete {
			return dst
		}
		return append(dst, s.subtree(lo, hi))
	}
	k := lo + splitPoint(hi-lo)
	if m <= k {
		return append(s.subProof(dst, m, lo, k, complete), s.subtree(k, hi))
	}
	return append(s.subProof(dst, m, k, hi, false), s.subtree(lo, k))
}

// SetSealKey arms sealing; material is unused. Sealing is off until
// armed: an unarmed buffer pays nothing per Append and keeps no seal
// state, which is why the core package arms logs only when the evidence
// plane is enabled. Arming is observable-free — it draws no randomness
// and schedules nothing — so it can never move a scenario digest. It
// must happen before the first Append and panics otherwise: a record's
// leaf index is its sequence number, which citations rely on when they
// prove a Line's Seq, and a late start would shift every leaf.
func (b *Buffer) SetSealKey(material []byte) {
	if b.Len() != 0 {
		panic("auditlog: SetSealKey after records were appended")
	}
	b.seal.enabled = true
}

// SealedSize returns how many records have been sealed — the size of the
// current tree head, equal to NextSeq for an unrewritten log.
func (b *Buffer) SealedSize() uint64 { return uint64(len(b.seal.leaves())) }

// LeafAt returns the leaf hash of the record at the given index.
func (b *Buffer) LeafAt(index uint64) (Hash, bool) {
	leaves := b.seal.leaves()
	if index >= uint64(len(leaves)) {
		return Hash{}, false
	}
	return leaves[index], true
}

// TreeHead returns the Merkle head over every sealed record.
func (b *Buffer) TreeHead() TreeHead {
	n := len(b.seal.leaves())
	return TreeHead{Size: uint64(n), Root: b.seal.subtree(0, n)}
}

// TreeHeadAt returns the head the log had when it held size records.
func (b *Buffer) TreeHeadAt(size uint64) (TreeHead, error) {
	if n := b.SealedSize(); size > n {
		return TreeHead{}, fmt.Errorf("auditlog: tree head at %d exceeds sealed size %d", size, n)
	}
	return TreeHead{Size: size, Root: b.seal.subtree(0, int(size))}, nil //nolint:gosec // bounded by len
}

// InclusionProof proves that the record at index is a leaf of the tree
// with the given size. The path is built in dst's storage (nil
// allocates), so a caller that reuses one buffer allocates nothing once
// it has grown; the proof is valid until that buffer is reused.
func (b *Buffer) InclusionProof(dst []Hash, index, size uint64) (Proof, error) {
	if n := b.SealedSize(); size > n {
		return Proof{}, fmt.Errorf("auditlog: inclusion proof for size %d exceeds sealed size %d", size, n)
	}
	if index >= size {
		return Proof{}, fmt.Errorf("auditlog: inclusion index %d outside tree of size %d", index, size)
	}
	return Proof{Path: b.seal.inclusionPath(dst[:0], int(index), 0, int(size))}, nil //nolint:gosec // bounded by len
}

// ConsistencyProof proves that the tree of size newSize extends the tree
// of size oldSize append-only. The path is built in dst's storage, as in
// InclusionProof.
func (b *Buffer) ConsistencyProof(dst []Hash, oldSize, newSize uint64) (Proof, error) {
	if n := b.SealedSize(); newSize > n {
		return Proof{}, fmt.Errorf("auditlog: consistency proof for size %d exceeds sealed size %d", newSize, n)
	}
	if oldSize > newSize {
		return Proof{}, fmt.Errorf("auditlog: consistency proof %d -> %d shrinks", oldSize, newSize)
	}
	if oldSize == 0 || oldSize == newSize {
		return Proof{Path: dst[:0]}, nil
	}
	return Proof{Path: b.seal.subProof(dst[:0], int(oldSize), 0, int(newSize), true)}, nil //nolint:gosec // bounded by len
}

// Rewrite is the ATTACKER's operation: it keeps the records keep
// accepts, in order, appends add after them, and reseals the rewritten
// history. The rebuilt Merkle tree generally cannot be linked by any
// consistency proof to a previously published head. Sequence numbers
// restart at 0 and the reseal does not fire the SetOnSeal observer.
// Honest code never calls this; attack.LogForger does.
//
// The records before the first one keep rejects stay where they were,
// so their leaves and every perfect subtree over them stand: level l
// keeps its first first>>l nodes, and the reseal hashes only from the
// first rewritten record on. The tree is the one a full reseal builds.
func (b *Buffer) Rewrite(keep func(Line) bool, add ...Record) {
	// Filtering compacts the index in place, across pages; the bytes stay
	// where they are, so no Line handed out before changes.
	n := b.Len()
	kept, first := 0, n
	for i := range n {
		if keep(b.line(i)) {
			*b.ref(kept) = *b.ref(i)
			kept++
		} else if first == n {
			first = i
		}
	}
	b.truncate(kept)
	for _, r := range add {
		line := b.render(r)[1:]
		copy(b.reserve(r.T, r.Node, len(line)), line)
	}
	if !b.seal.enabled {
		return
	}
	for l := range b.seal.levels {
		b.seal.levels[l] = b.seal.levels[l][:first>>l]
	}
	for i := first; i < b.Len(); i++ {
		b.scratch = append(append(b.scratch[:0], prefixLeaf), b.line(i).Text...)
		b.seal.append(b.scratch)
	}
}
