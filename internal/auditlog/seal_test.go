package auditlog

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/addr"
)

// leafData builds distinct leaf contents for proof-shape tests.
func testLeaves(n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		out[i] = LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func TestMerkleRootKnownShapes(t *testing.T) {
	empty := merkleRoot(nil)
	if empty == (Hash{}) {
		t.Fatal("empty root is the zero hash")
	}
	one := testLeaves(1)
	if merkleRoot(one) != one[0] {
		t.Fatal("single-leaf root must be the leaf hash")
	}
	two := testLeaves(2)
	if merkleRoot(two) != nodeHash(two[0], two[1]) {
		t.Fatal("two-leaf root mismatch")
	}
	three := testLeaves(3)
	want := nodeHash(nodeHash(three[0], three[1]), three[2])
	if merkleRoot(three) != want {
		t.Fatal("three-leaf root must split 2|1")
	}
}

// TestInclusionProofAllSizes cross-checks the prover and verifier for
// every (index, size) pair up to size 64, plus rejection of wrong leaves
// and wrong indices.
func TestInclusionProofAllSizes(t *testing.T) {
	leaves := testLeaves(64)
	var b Buffer
	b.SetSealKey(nil)
	for i := range leaves {
		b.Append(Record{Kind: KindHelloTx, Fields: []Field{FInt("i", i)}})
	}
	for size := uint64(1); size <= 64; size++ {
		head, err := b.TreeHeadAt(size)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(0); idx < size; idx++ {
			proof, err := b.InclusionProof(nil, idx, size)
			if err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", idx, size, err)
			}
			leaf, _ := b.LeafAt(idx)
			if !VerifyInclusion(leaf, idx, head, proof) {
				t.Fatalf("inclusion proof (%d, %d) rejected", idx, size)
			}
			// A different leaf must not verify at this position.
			if VerifyInclusion(LeafHash([]byte("forged")), idx, head, proof) {
				t.Fatalf("forged leaf accepted at (%d, %d)", idx, size)
			}
			// The same leaf must not verify at a shifted position.
			if size > 1 && VerifyInclusion(leaf, (idx+1)%size, head, proof) {
				t.Fatalf("leaf accepted at wrong index (%d as %d, size %d)", idx, (idx+1)%size, size)
			}
		}
	}
	if _, err := b.InclusionProof(nil, 5, 5); err == nil {
		t.Fatal("index == size accepted")
	}
	if _, err := b.InclusionProof(nil, 0, 65); err == nil {
		t.Fatal("size beyond sealed accepted")
	}
}

// TestConsistencyProofAllPairs cross-checks prover and verifier for every
// old <= new pair up to 48 leaves, and rejects mismatched roots.
func TestConsistencyProofAllPairs(t *testing.T) {
	var b Buffer
	b.SetSealKey(nil)
	for i := 0; i < 48; i++ {
		b.Append(Record{Kind: KindTCTx, Fields: []Field{FInt("i", i)}})
	}
	for oldSize := uint64(0); oldSize <= 48; oldSize++ {
		oldHead, err := b.TreeHeadAt(oldSize)
		if err != nil {
			t.Fatal(err)
		}
		for newSize := oldSize; newSize <= 48; newSize++ {
			newHead, err := b.TreeHeadAt(newSize)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := b.ConsistencyProof(nil, oldSize, newSize)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", oldSize, newSize, err)
			}
			if !VerifyConsistency(oldHead, newHead, proof) {
				t.Fatalf("consistency proof %d -> %d rejected", oldSize, newSize)
			}
			if oldSize > 0 {
				// A forged old head (different history) must not verify.
				forged := oldHead
				forged.Root[0] ^= 0xff
				if VerifyConsistency(forged, newHead, proof) {
					t.Fatalf("forged old head accepted at %d -> %d", oldSize, newSize)
				}
			}
			// A forged new head must be rejected — except from the empty
			// tree, which anchors nothing and is consistent with any head.
			if newSize > oldSize && oldSize > 0 {
				forged := newHead
				forged.Root[0] ^= 0xff
				if VerifyConsistency(oldHead, forged, proof) {
					t.Fatalf("forged new head accepted at %d -> %d", oldSize, newSize)
				}
			}
		}
	}
	if _, err := b.ConsistencyProof(nil, 5, 3); err == nil {
		t.Fatal("shrinking consistency proof accepted")
	}
}

func TestSetSealKeyAfterAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetSealKey after Append did not panic")
		}
	}()
	var b Buffer
	b.Append(Record{Kind: KindHelloTx})
	b.SetSealKey(nil)
}

// TestRewriteBreaksSeal pins the attacker model: a Rewrite yields a log
// whose tree head cannot be linked to the pre-rewrite head by any
// consistency proof.
func TestRewriteBreaksSeal(t *testing.T) {
	var b Buffer
	b.SetSealKey(nil)
	for i := 0; i < 12; i++ {
		b.Append(Record{Kind: KindHelloRx, Node: addr.NodeAt(1), Fields: []Field{FInt("i", i)}})
	}
	before := b.TreeHead()

	// Erase record 3 and plant a forged one at the end: same size, so
	// only the roots can tell the trees apart.
	b.Rewrite(func(l Line) bool { return l.Seq != 3 },
		Record{Kind: KindHelloRx, Node: addr.NodeAt(1), Fields: []Field{F("forged", "yes")}})

	after := b.TreeHead()
	if after.Root == before.Root {
		t.Fatal("rewrite left the tree head unchanged")
	}
	// No self-produced consistency proof can link old head to new tree.
	proof, err := b.ConsistencyProof(nil, before.Size, after.Size)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyConsistency(before, after, proof) {
		t.Fatal("forged tree consistent with the pre-rewrite head")
	}
}

// TestAppendStaysConsistent pins the flip side of tamper evidence: plain
// appends are exactly what consistency proofs must keep accepting.
func TestAppendStaysConsistent(t *testing.T) {
	var b Buffer
	b.SetSealKey(nil)
	for i := 0; i < 9; i++ {
		b.Append(Record{Kind: KindHelloTx, Fields: []Field{FInt("i", i)}})
	}
	old := b.TreeHead()
	for i := 9; i < 14; i++ {
		b.Append(Record{Kind: KindHelloTx, Fields: []Field{FInt("i", i)}})
	}
	proof, err := b.ConsistencyProof(nil, old.Size, b.SealedSize())
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyConsistency(old, b.TreeHead(), proof) {
		t.Fatal("append-only growth rejected")
	}
}

// BenchmarkSealedAppend prices sealing one record: one canonical
// render, one leaf hash and the node hashes of the subtrees the leaf
// completes (one per record, amortized). Only logs of evidence-plane runs are sealed: the
// logforger presets seal ~23 000 records a run, and no scale preset
// enables the plane.
func BenchmarkSealedAppend(b *testing.B) {
	var buf Buffer
	buf.SetSealKey(nil)
	r := Record{
		T: 2500 * time.Millisecond, Node: addr.NodeAt(1), Kind: KindHelloRx,
		Fields: []Field{
			FNode("from", addr.NodeAt(2)),
			FNodes("sym", []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}),
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Append(r)
	}
}

// randomRecord builds a record with occasionally-hostile field content
// (separator bytes, escapes), exercising the codec under sealing.
func randomRecord(rng *rand.Rand) Record {
	kinds := []Kind{KindHelloRx, KindHelloTx, KindTCRx, KindTCFwd, KindMPRSet}
	hostile := []string{"a b", "x=y", "line\nbreak", "100%", "\ttab", "plain", "10.0.0.7"}
	r := Record{
		T:    time.Duration(rng.Intn(100000)) * time.Millisecond,
		Node: addr.NodeAt(1 + rng.Intn(40)),
		Kind: kinds[rng.Intn(len(kinds))],
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		r.Fields = append(r.Fields, F(fmt.Sprintf("f%d", i), hostile[rng.Intn(len(hostile))]))
	}
	return r
}

// TestTamperEvidenceProperty is the randomized tamper harness (PR-3
// equivalence style): across 1000+ random logs, every tampering class —
// bit flip, record deletion, reordering, truncation, fabricated
// insertion — must be caught by tree-head divergence.
func TestTamperEvidenceProperty(t *testing.T) {
	const trials = 1200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial))) //nolint:gosec // test determinism

		var honest Buffer
		honest.SetSealKey(nil)
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			honest.Append(randomRecord(rng))
		}
		head := honest.TreeHead()

		// Tamper with a copy.
		recs, _ := honest.Since(0)
		mode := rng.Intn(5)
		switch mode {
		case 0: // bit flip inside one record
			i := rng.Intn(len(recs))
			if len(recs[i].Fields) == 0 {
				recs[i].Fields = append(recs[i].Fields, F("x", "1"))
			} else {
				f := &recs[i].Fields[rng.Intn(len(recs[i].Fields))]
				*f = F(f.Key, f.value()+"!")
			}
		case 1: // deletion
			i := rng.Intn(len(recs))
			recs = append(recs[:i], recs[i+1:]...)
		case 2: // reorder two adjacent distinct records
			i := rng.Intn(len(recs) - 1)
			recs[i], recs[i+1] = recs[i+1], recs[i]
			if recs[i].String() == recs[i+1].String() {
				recs[i].Fields = append(recs[i].Fields, F("swap", "1"))
			}
		case 3: // truncation
			recs = recs[:1+rng.Intn(len(recs)-1)]
		case 4: // fabricated insertion into the covered prefix
			// Insertion strictly before the end rewrites covered history.
			// (Appending at the end is append-only — the tree cannot and
			// must not flag it; TestAppendStaysConsistent pins that.)
			i := rng.Intn(len(recs))
			recs = append(recs[:i:i], append([]Record{randomRecord(rng)}, recs[i:]...)...)
		}

		var forged Buffer
		forged.SetSealKey(nil)
		for _, r := range recs {
			forged.Append(r)
		}

		// The remote view: the forged tree must not pass for the honest
		// head. Equal sizes must diverge in root; smaller sizes are
		// rejected by size; larger ones must fail consistency.
		fhead := forged.TreeHead()
		switch {
		case fhead.Size == head.Size:
			if fhead.Root == head.Root {
				t.Fatalf("trial %d mode %d: tampered tree kept the honest root", trial, mode)
			}
		case fhead.Size > head.Size:
			proof, err := forged.ConsistencyProof(nil, head.Size, fhead.Size)
			if err != nil {
				t.Fatal(err)
			}
			if VerifyConsistency(head, fhead, proof) {
				t.Fatalf("trial %d mode %d: tampered tree consistent with honest head", trial, mode)
			}
		default:
			// Size shrank: a gossip verifier rejects on size alone, which
			// the switch ordering already guarantees here.
		}
	}
}
