// Tamper-evident sealing of the audit log.
//
// The paper's IDS trusts the routing daemon's own log — which makes the
// log itself an attack surface: a compromised responder can rewrite its
// history and "prove" anything it likes. Sealing makes that rewriting
// *evident* with two complementary mechanisms, borrowed from the
// transparency-log literature:
//
//   - A forward-secure hash chain (securelog-style): every appended
//     record extends a running chain head and is authenticated with a
//     keyed tag (sealTag — a domain-separated prefix-MAC over fixed-size
//     inputs, see its comment) under an evolving key that is hashed
//     forward (and the old key erased) after each append. A node
//     compromised at time t cannot
//     recompute the tags of records sealed before t, so an auditor who
//     holds the initial key detects any rewrite of pre-compromise
//     history (VerifySealedChain).
//
//   - An incremental Merkle tree (sigsum/RFC 6962-style): the sealed
//     records double as tree leaves, and the log exposes TreeHead,
//     InclusionProof and ConsistencyProof. Tree heads are gossiped;
//     replies to investigations cite records together with inclusion
//     proofs against the responder's current head plus a consistency
//     proof from the head the investigator already knows. A forger who
//     rewrote history cannot link its new head to any previously
//     gossiped one, so its testimony is rejected (internal/detect).
//
// Leaves are the canonical text rendering of each record (Record.String),
// the same bytes the Buffer stores — which is why the codec's escaping
// matters: two different records must never share a rendering.
package auditlog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashSize is the byte length of every digest used by the sealed log.
const HashSize = sha256.Size

// Hash is a SHA-256 digest.
type Hash [HashSize]byte

// String renders the digest as hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Domain-separation prefixes. Leaf and interior prefixes follow RFC 6962;
// the chain/key/seed prefixes keep the forward-secure chain's inputs
// disjoint from the tree's.
const (
	prefixLeaf    byte = 0x00
	prefixNode    byte = 0x01
	prefixChain   byte = 0x02
	prefixKeyStep byte = 0x03
	prefixKeySeed byte = 0x04
	prefixTag     byte = 0x05
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

// chainStep extends the forward-secure chain: H(0x02 || chain || leaf).
//
//repro:allocfree
func chainStep(chain, leaf Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = prefixChain
	copy(buf[1:], chain[:])
	copy(buf[1+HashSize:], leaf[:])
	return sha256.Sum256(buf[:])
}

// keyStep evolves the sealing key one epoch forward: H(0x03 || key). The
// step is one-way, which is the whole point — knowing k_i reveals nothing
// about k_{i-1}.
//
//repro:allocfree
func keyStep(key Hash) Hash {
	var buf [1 + HashSize]byte
	buf[0] = prefixKeyStep
	copy(buf[1:], key[:])
	return sha256.Sum256(buf[:])
}

// DeriveSealKey maps arbitrary key material to the initial sealing key
// k_0: H(0x04 || material).
func DeriveSealKey(material []byte) Hash {
	h := sha256.New()
	h.Write([]byte{prefixKeySeed})
	h.Write(material)
	var out Hash
	copy(out[:], h.Sum(out[:0]))
	return out
}

// sealTag authenticates one chain head under the epoch key as
// H(0x05 || key || chain). A prefix-MAC is safe here where generic HMAC
// hedging is not needed: both inputs are fixed 32-byte values (no
// length-extension surface — a tag is never a prefix of another MAC
// input) and the domain byte separates it from every other hash in the
// package. One Sum256 per record instead of crypto/hmac's four hash
// states matters: every audit record of every node pays this.
//
//repro:allocfree
func sealTag(key, chain Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = prefixTag
	copy(buf[1:], key[:])
	copy(buf[1+HashSize:], chain[:])
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

// merkleRoot computes the RFC 6962 tree head over leaf hashes.
func merkleRoot(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		// MTH({}) = H(""): the empty tree has a defined head so a brand
		// new log can already gossip.
		var out Hash
		copy(out[:], sha256.New().Sum(nil))
		return out
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(merkleRoot(leaves[:k]), merkleRoot(leaves[k:]))
}

// splitPoint returns the largest power of two strictly less than n (n ≥ 2).
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// inclusionPath builds the RFC 6962 audit path for leaf m over leaves.
func inclusionPath(m int, leaves []Hash) []Hash {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if m < k {
		return append(inclusionPath(m, leaves[:k]), merkleRoot(leaves[k:]))
	}
	return append(inclusionPath(m-k, leaves[k:]), merkleRoot(leaves[:k]))
}

// consistencyPath builds the RFC 6962 consistency proof between the tree
// over the first m leaves and the tree over all of them.
func consistencyPath(m int, leaves []Hash) []Hash {
	return subProof(m, leaves, true)
}

func subProof(m int, leaves []Hash, complete bool) []Hash {
	if m == len(leaves) {
		if complete {
			return nil
		}
		return []Hash{merkleRoot(leaves)}
	}
	k := splitPoint(len(leaves))
	if m <= k {
		return append(subProof(m, leaves[:k], complete), merkleRoot(leaves[k:]))
	}
	return append(subProof(m-k, leaves[k:], false), merkleRoot(leaves[:k]))
}

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

// seal is the tamper-evidence state of a Buffer. Leaves and tags cover
// every record ever appended — unlike the record ring, they are never
// discarded (32+32 bytes per record), because proofs about old records
// must remain producible after the ring dropped their bodies.
type seal struct {
	enabled bool   // armed by SetSealKey; unarmed buffers seal nothing
	key     Hash   // evolving epoch key k_i
	chain   Hash   // chain head after the last append
	leaves  []Hash // leaf hash per sequence number
	tags    []Hash // forward-secure tag per sequence number

	// stack is the RFC 6962 incremental-root state: one perfect-subtree
	// root per set bit of stackCount, leftmost subtree first. It is
	// advanced LAZILY — append pays nothing; each TreeHead call folds in
	// only the leaves sealed since the previous call — so computing the
	// current root costs O(new leaves) amortized and O(log n) to fold,
	// instead of an O(n) full recomputation per gossip tick (quadratic
	// over a run), while a log that never gossips pays nothing at all.
	stack      []Hash
	stackCount uint64
}

// advanceStack folds the leaves sealed since the last call into the
// incremental stack (the standard CT merge: a new leaf collapses one
// stack level per trailing 1-bit of the leaf count).
func (s *seal) advanceStack() {
	for s.stackCount < uint64(len(s.leaves)) {
		s.stack = append(s.stack, s.leaves[s.stackCount])
		for m := s.stackCount; m&1 == 1; m >>= 1 {
			n := len(s.stack)
			s.stack[n-2] = nodeHash(s.stack[n-2], s.stack[n-1])
			s.stack = s.stack[:n-1]
		}
		s.stackCount++
	}
}

// root returns the Merkle root over every sealed leaf via the
// incremental stack.
func (s *seal) root() Hash {
	s.advanceStack()
	if len(s.stack) == 0 {
		return merkleRoot(nil)
	}
	r := s.stack[len(s.stack)-1]
	for i := len(s.stack) - 2; i >= 0; i-- {
		r = nodeHash(s.stack[i], r)
	}
	return r
}

// append seals one record, given as its canonical line prefixed with
// prefixLeaf: leaf hash, chain step, epoch tag, key evolution — the
// per-record hot path BenchmarkSealedAppend prices, with zero
// allocations (leaves/tags appends amortize into retained capacity).
//
//repro:allocfree
func (s *seal) append(leafInput []byte) {
	leaf := Hash(sha256.Sum256(leafInput))
	s.chain = chainStep(s.chain, leaf)
	s.leaves = append(s.leaves, leaf)
	s.tags = append(s.tags, sealTag(s.key, s.chain))
	s.key = keyStep(s.key)
}

// SetSealKey arms sealing with the initial key k_0, derived from
// material. Sealing is off until armed: an unarmed buffer pays nothing
// per Append and keeps no seal state (the record ring's LogCap bound
// stays real), which is why the core package arms logs only when the
// evidence plane is enabled. Arming is observable-free — it draws no
// randomness and schedules nothing — so it can never move a scenario
// digest. It must happen before the first Append (the chain is keyed
// from the very first record) and panics otherwise, because a late
// start would silently void the forward-security property.
func (b *Buffer) SetSealKey(material []byte) {
	if len(b.refs) != 0 || b.base != 0 {
		panic("auditlog: SetSealKey after records were appended")
	}
	b.seal.enabled = true
	b.seal.key = DeriveSealKey(material)
}

// Sealed reports whether sealing is armed.
func (b *Buffer) Sealed() bool { return b.seal.enabled }

// SealedSize returns how many records have been sealed — the size of the
// current tree head, equal to NextSeq for an unrewritten log.
func (b *Buffer) SealedSize() uint64 { return uint64(len(b.seal.leaves)) }

// ChainHead returns the forward-secure chain head over every sealed
// record.
func (b *Buffer) ChainHead() Hash { return b.seal.chain }

// SealTag returns the forward-secure tag of the record at the given leaf
// index.
func (b *Buffer) SealTag(index uint64) (Hash, bool) {
	if index >= uint64(len(b.seal.tags)) {
		return Hash{}, false
	}
	return b.seal.tags[index], true
}

// LeafAt returns the leaf hash of the record at the given index.
func (b *Buffer) LeafAt(index uint64) (Hash, bool) {
	if index >= uint64(len(b.seal.leaves)) {
		return Hash{}, false
	}
	return b.seal.leaves[index], true
}

// TreeHead returns the Merkle head over every sealed record. Amortized
// cost is one node hash per record sealed since the previous call (the
// incremental stack); proofs, by contrast, recompute over the leaf
// prefix they cover — they are per-investigation, not per-tick.
func (b *Buffer) TreeHead() TreeHead {
	return TreeHead{
		Size: uint64(len(b.seal.leaves)),
		Root: b.seal.root(),
	}
}

// TreeHeadAt returns the head the log had when it held size records.
func (b *Buffer) TreeHeadAt(size uint64) (TreeHead, error) {
	if size > uint64(len(b.seal.leaves)) {
		return TreeHead{}, fmt.Errorf("auditlog: tree head at %d exceeds sealed size %d", size, len(b.seal.leaves))
	}
	return TreeHead{Size: size, Root: merkleRoot(b.seal.leaves[:size])}, nil
}

// InclusionProof proves that the record at index is a leaf of the tree
// with the given size.
func (b *Buffer) InclusionProof(index, size uint64) (Proof, error) {
	if size > uint64(len(b.seal.leaves)) {
		return Proof{}, fmt.Errorf("auditlog: inclusion proof for size %d exceeds sealed size %d", size, len(b.seal.leaves))
	}
	if index >= size {
		return Proof{}, fmt.Errorf("auditlog: inclusion index %d outside tree of size %d", index, size)
	}
	return Proof{Path: inclusionPath(int(index), b.seal.leaves[:size])}, nil //nolint:gosec // bounded by len
}

// ConsistencyProof proves that the tree of size newSize extends the tree
// of size oldSize append-only.
func (b *Buffer) ConsistencyProof(oldSize, newSize uint64) (Proof, error) {
	if newSize > uint64(len(b.seal.leaves)) {
		return Proof{}, fmt.Errorf("auditlog: consistency proof for size %d exceeds sealed size %d", newSize, len(b.seal.leaves))
	}
	if oldSize > newSize {
		return Proof{}, fmt.Errorf("auditlog: consistency proof %d -> %d shrinks", oldSize, newSize)
	}
	if oldSize == 0 || oldSize == newSize {
		return Proof{}, nil
	}
	return Proof{Path: consistencyPath(int(oldSize), b.seal.leaves[:newSize])}, nil //nolint:gosec // bounded by len
}

// Rewrite is the ATTACKER's operation: it keeps the retained records
// keep accepts, in order, appends add after them, and reseals everything
// from scratch — with the log's CURRENT epoch key, because the
// pre-compromise keys were hashed forward and erased. The rebuilt chain
// therefore cannot reproduce the original tags (VerifySealedChain with k_0
// fails), and the rebuilt Merkle tree generally cannot be linked by any
// consistency proof to a previously published head. Sequence numbers
// restart at 0, a ring keeps the newest MaxLen records, and the reseal
// does not fire the SetOnSeal observer. Honest code never calls this;
// attack.LogForger does.
func (b *Buffer) Rewrite(keep func(Line) bool, add ...Record) {
	// Filtering drops index entries only: the bytes stay where they are,
	// so no Line handed out before changes.
	kept := b.refs[:0]
	for i, ref := range b.refs {
		if keep(b.line(i)) {
			kept = append(kept, ref)
		}
	}
	b.refs = kept
	for _, r := range add {
		line := b.render(r)[1:]
		copy(b.reserve(r.T, r.Node, len(line)), line)
	}
	if b.MaxLen > 0 && len(b.refs) > b.MaxLen {
		b.drop(len(b.refs) - b.MaxLen)
	}
	b.base = 0
	if !b.seal.enabled {
		return
	}
	b.seal.chain = Hash{}
	b.seal.leaves = b.seal.leaves[:0]
	b.seal.tags = b.seal.tags[:0]
	b.seal.stack = b.seal.stack[:0]
	b.seal.stackCount = 0
	for i := range b.refs {
		b.scratch = append(append(b.scratch[:0], prefixLeaf), b.line(i).Text...)
		b.seal.append(b.scratch)
	}
}

// SealedRecord pairs a record line with its position and tag, as handed
// to an auditor.
type SealedRecord struct {
	Index uint64
	Line  string
	Tag   Hash
}

// Export returns every retained record in sealed form (records older than
// the ring's retention window are gone; their leaves and tags remain
// inside the log for proofs, but cannot be exported). An unsealed buffer
// has nothing to export.
func (b *Buffer) Export() []SealedRecord {
	if !b.seal.enabled {
		return nil
	}
	out := make([]SealedRecord, len(b.refs))
	for i := range b.refs {
		l := b.line(i)
		out[i] = SealedRecord{Index: l.Seq, Line: l.Text, Tag: b.seal.tags[l.Seq]}
	}
	return out
}

// VerifySealedChain replays an exported record sequence against the
// initial key material and reports the first index whose tag does not
// match, or -1 when the whole sequence (and, when expectHead is non-nil,
// the final chain head) checks out. The sequence must start at index 0 —
// forward security means the auditor must walk the key schedule from k_0.
func VerifySealedChain(material []byte, recs []SealedRecord, expectHead *Hash) (int, error) {
	key := DeriveSealKey(material)
	var chain Hash
	for i, r := range recs {
		if r.Index != uint64(i) { //nolint:gosec // i >= 0
			return i, fmt.Errorf("auditlog: sealed record %d carries index %d", i, r.Index)
		}
		chain = chainStep(chain, LeafHash([]byte(r.Line)))
		if sealTag(key, chain) != r.Tag {
			return i, fmt.Errorf("auditlog: sealed record %d fails tag verification", i)
		}
		key = keyStep(key)
	}
	if expectHead != nil && chain != *expectHead {
		return len(recs), fmt.Errorf("auditlog: chain head mismatch after %d records", len(recs))
	}
	return -1, nil
}
