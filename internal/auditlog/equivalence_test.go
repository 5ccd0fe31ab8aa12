package auditlog

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/addr"
)

// refLog is the reference the line store must agree with: every record
// kept as a Record in a slice, sealed from its String rendering, with the
// cursor and rewrite semantics the Buffer documents.
type refLog struct {
	recs []Record

	sealed       bool
	leaves       []Hash
	sealObserved []uint64 // what SetOnSeal must have seen
	cursorNext   uint64
}

func (r *refLog) nextSeq() uint64 { return uint64(len(r.recs)) }

func (r *refLog) append(rec Record) {
	if r.sealed {
		r.sealObserved = append(r.sealObserved, r.nextSeq())
		r.leaves = append(r.leaves, LeafHash([]byte(rec.String())))
	}
	r.recs = append(r.recs, rec)
}

func (r *refLog) since(seq uint64) ([]Record, uint64) {
	if seq >= r.nextSeq() {
		return nil, r.nextSeq()
	}
	return append([]Record(nil), r.recs[seq:]...), r.nextSeq()
}

// read is the reference cursor: everything since the last read.
func (r *refLog) read() []Record {
	recs, next := r.since(r.cursorNext)
	r.cursorNext = next
	return recs
}

func (r *refLog) rewrite(recs []Record) {
	r.recs = append([]Record(nil), recs...)
	if !r.sealed {
		return
	}
	r.leaves = nil
	for _, rec := range r.recs {
		r.leaves = append(r.leaves, LeafHash([]byte(rec.String())))
	}
}

// hostileValues covers the codec's separator bytes, escapes, Unicode
// whitespace, empty strings and invalid UTF-8.
var hostileValues = []string{
	"", "plain", "10.0.0.7", "10.0.0.3,10.0.0.4", "a b", "x=y", "=", "%", "100%",
	"%41", "line\nbreak", "\ttab", "nbsp\u00a0x", "ls\u2028x", "nel\u0085x",
	"é", "\xff\xfe", "\xe2\x80", "k=v w=z",
}

func randomHostileRecord(rng *rand.Rand) Record {
	kinds := []Kind{KindHelloRx, KindHelloTx, KindTCRx, KindMPRSet, "ODD KIND", "%", "K=V", " "}
	var t time.Duration
	switch rng.Intn(5) {
	case 0: // sub-millisecond
		t = time.Duration(rng.Int63n(int64(10 * time.Second)))
	case 1: // exactly on a half millisecond
		t = time.Duration(rng.Int63n(1e5))*time.Millisecond + 500*time.Microsecond
	case 2: // negative
		t = -time.Duration(rng.Int63n(int64(time.Hour)))
	case 3: // whole milliseconds
		t = time.Duration(rng.Int63n(1e7)) * time.Millisecond
	default: // far out
		t = time.Duration(rng.Int63())
	}
	r := Record{T: t, Kind: kinds[rng.Intn(len(kinds))]}
	if rng.Intn(6) > 0 { // otherwise the zero node
		r.Node = addr.Node(rng.Uint32())
	}
	for n := rng.Intn(5); n > 0; n-- {
		r.Fields = append(r.Fields, F(
			hostileValues[rng.Intn(len(hostileValues))],
			hostileValues[rng.Intn(len(hostileValues))],
		))
	}
	return r
}

// sameRecord compares a decoded record with the reference one; nil and
// empty field lists are the same record.
func sameRecord(a, b Record) bool {
	if a.T != b.T || a.Node != b.Node || a.Kind != b.Kind || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if fieldText(a.Fields[i]) != fieldText(b.Fields[i]) {
			return false
		}
	}
	return true
}

// refHarness drives one op sequence through a Buffer and the reference.
type refHarness struct {
	t        *testing.T
	s        int // the sequence number, for failure messages
	rng      *rand.Rand
	b        *Buffer
	ref      *refLog
	cur      *Cursor
	observed []uint64 // what SetOnSeal saw
}

// newRefHarness starts sequence s on an empty buffer, sealed or not as
// rng draws.
func newRefHarness(t *testing.T, s int, rng *rand.Rand) *refHarness {
	h := &refHarness{t: t, s: s, rng: rng, b: &Buffer{}, ref: &refLog{}}
	if rng.Intn(2) == 0 {
		h.b.SetSealKey(nil)
		h.b.SetOnSeal(func(seq uint64) { h.observed = append(h.observed, seq) })
		h.ref.sealed = true
	}
	h.cur = NewCursor(h.b)
	return h
}

func (h *refHarness) fail(op string, format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("sequence %d (sealed %v, %d records), %s: %s", h.s, h.ref.sealed, len(h.ref.recs), op, fmt.Sprintf(format, args...))
}

// appendRecord appends r to both logs.
func (h *refHarness) appendRecord(r Record) {
	h.b.Append(r)
	h.ref.append(r)
}

// rewrite erases the records erase accepts from both logs and appends
// add after the survivors, as a forger does.
func (h *refHarness) rewrite(erase func(seq uint64, kind Kind) bool, add []Record) {
	all, _ := h.ref.since(0)
	var kept []Record
	for i, r := range all {
		if !erase(uint64(i), r.Kind) { //nolint:gosec // i >= 0
			kept = append(kept, r)
		}
	}
	h.ref.rewrite(append(kept, add...))
	h.b.Rewrite(func(l Line) bool { return !erase(l.Seq, l.Kind()) }, add...)
}

// step runs one random op — an append of burst hostile records, a cursor
// read, a Since, or a forger-style rewrite — and then compares every
// observable.
func (h *refHarness) step(burst int) {
	rng := h.rng
	switch k := rng.Intn(10); {
	case k < 6:
		for n := burst; n > 0; n-- {
			h.appendRecord(randomHostileRecord(rng))
		}
	case k < 7:
		want := h.ref.read()
		got := readAll(h.cur)
		if len(got) != len(want) {
			h.fail("cursor", "read %d lines, want %d", len(got), len(want))
		}
		first := h.ref.cursorNext - uint64(len(want)) //nolint:gosec // len >= 0
		for i := range got {
			if got[i].Text != want[i].String() || got[i].T != want[i].T ||
				got[i].Node != want[i].Node || got[i].Seq != first+uint64(i) { //nolint:gosec // i >= 0
				h.fail("cursor", "line %d = %+v, want %q", i, got[i], want[i].String())
			}
		}
	case k < 8:
		seq := uint64(rng.Int63n(int64(h.ref.nextSeq()) + 3)) //nolint:gosec // small
		got, gnext := h.b.Since(seq)
		want, wnext := h.ref.since(seq)
		if gnext != wnext || len(got) != len(want) {
			h.fail("since", "Since(%d) = %d recs next %d, want %d next %d", seq, len(got), gnext, len(want), wnext)
		}
		for i := range got {
			if !sameRecord(got[i], want[i]) {
				h.fail("since", "record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	default:
		// Erase by kind or by position and plant fresh records after the
		// survivors.
		victim := randomHostileRecord(rng).Kind
		stride := uint64(2 + rng.Intn(4)) //nolint:gosec // small
		var add []Record
		for n := rng.Intn(3); n > 0; n-- {
			add = append(add, randomHostileRecord(rng))
		}
		h.rewrite(func(seq uint64, kind Kind) bool { return kind == victim || seq%stride == 0 }, add)
	}
	h.check()
}

func (h *refHarness) check() {
	h.t.Helper()
	checkAgainstReference(h.t, h.b, h.ref, h.fail, h.rng)
}

// finish checks what the seal observer saw over the whole sequence.
func (h *refHarness) finish() {
	if fmt.Sprint(h.observed) != fmt.Sprint(h.ref.sealObserved) {
		h.t.Fatalf("sequence %d: onSeal saw %v, want %v", h.s, h.observed, h.ref.sealObserved)
	}
}

// TestBufferMatchesReference runs random op sequences — appends of
// hostile records, cursor reads, Since, forger-style rewrites — through
// the line store and the reference, sealed and unsealed, and requires
// every observable to agree.
func TestBufferMatchesReference(t *testing.T) {
	const sequences = 1200
	for s := 0; s < sequences; s++ {
		rng := rand.New(rand.NewSource(int64(9100 + s))) //nolint:gosec // test determinism
		h := newRefHarness(t, s, rng)
		for op := 0; op < 5+rng.Intn(60); op++ {
			h.step(1)
		}
		h.finish()
	}
}

// randomTypedRecord builds a TC_RX-style record from typed fields, with
// addresses inside and past the interned hosts.
func randomTypedRecord(rng *rand.Rand) Record {
	adv := make([]addr.Node, rng.Intn(25))
	for i := range adv {
		adv[i] = addr.NodeAt(1 + rng.Intn(1100))
	}
	return Record{
		T:    time.Duration(rng.Int63n(int64(time.Hour))),
		Node: addr.NodeAt(1 + rng.Intn(1100)),
		Kind: KindTCRx,
		Fields: []Field{
			FNode("orig", addr.NodeAt(1+rng.Intn(1100))),
			FInt("ansn", rng.Intn(1<<16)),
			FNodes("adv", adv),
		},
	}
}

// TestBufferPagesMatchReference runs op sequences long enough that the
// index spans more than two pages: appends come in bursts of up to a
// page, mixing typed and hostile records, between the usual reads and
// rewrites. Each log then takes two boundary rewrites: one drops
// records on both sides of the first two page boundaries, one drops more
// than a page so the index loses a page, and each is followed by
// appends that cross a boundary again.
func TestBufferPagesMatchReference(t *testing.T) {
	for s := 0; s < 4; s++ {
		rng := rand.New(rand.NewSource(int64(9900 + s))) //nolint:gosec // test determinism
		h := newRefHarness(t, s, rng)
		for h.ref.nextSeq() < 2*pageRefs+pageRefs/2 {
			h.step(1 + rng.Intn(pageRefs))
			for n := rng.Intn(pageRefs / 2); n > 0; n-- {
				h.appendRecord(randomTypedRecord(rng))
			}
		}
		if len(h.b.pages) < 3 {
			t.Fatalf("sequence %d: %d records span %d pages, want at least 3", s, h.b.Len(), len(h.b.pages))
		}
		around := func(seq uint64, boundaries ...uint64) bool {
			for _, p := range boundaries {
				if seq+2 >= p && seq <= p+1 {
					return true
				}
			}
			return false
		}
		h.rewrite(func(seq uint64, _ Kind) bool { return around(seq, pageRefs, 2*pageRefs) },
			[]Record{randomTypedRecord(rng), randomHostileRecord(rng)})
		h.check()
		for n := 0; n < 16; n++ {
			h.appendRecord(randomTypedRecord(rng))
		}
		h.check()
		pages := len(h.b.pages)
		h.rewrite(func(seq uint64, _ Kind) bool { return seq >= pageRefs-10 && seq < 2*pageRefs+10 }, nil)
		if len(h.b.pages) >= pages {
			t.Fatalf("sequence %d: dropping over a page left %d pages of %d", s, len(h.b.pages), pages)
		}
		h.check()
		for n := 0; n < pageRefs/2; n++ {
			h.appendRecord(randomTypedRecord(rng))
		}
		h.step(1)
		h.step(1)
		h.finish()
	}
}

func checkAgainstReference(t *testing.T, b *Buffer, ref *refLog, fail func(string, string, ...any), rng *rand.Rand) {
	t.Helper()
	if b.Len() != len(ref.recs) || b.NextSeq() != ref.nextSeq() {
		fail("size", "Len %d NextSeq %d, want %d %d", b.Len(), b.NextSeq(), len(ref.recs), ref.nextSeq())
	}
	for i, r := range ref.recs {
		seq := uint64(i) //nolint:gosec // i >= 0
		l, ok := b.LineAt(seq)
		if !ok || l.Text != r.String() || l.T != r.T || l.Node != r.Node || l.Kind() != r.Kind {
			fail("line", "LineAt(%d) = %+v, %v, want %q", seq, l, ok, r.String())
		}
		for _, f := range r.Fields {
			want, _ := r.Get(f.Key)
			if got, ok := l.Get(f.Key); !ok || got != want {
				fail("get", "line %d Get(%q) = %q, %v, want %q", seq, f.Key, got, ok, want)
			}
		}
	}
	if _, ok := b.LineAt(ref.nextSeq()); ok {
		fail("line", "LineAt(NextSeq) found a record")
	}
	if !ref.sealed {
		if b.SealedSize() != 0 {
			fail("seal", "unsealed buffer seals")
		}
		return
	}
	if b.SealedSize() != uint64(len(ref.leaves)) {
		fail("seal", "sealed size %d, want %d", b.SealedSize(), len(ref.leaves))
	}
	if head := b.TreeHead(); head.Size != uint64(len(ref.leaves)) || head.Root != merkleRoot(ref.leaves) {
		fail("tree", "head %+v, want size %d", head, len(ref.leaves))
	}
	if len(ref.leaves) == 0 {
		return
	}
	index := uint64(rng.Intn(len(ref.leaves))) //nolint:gosec // small
	if leaf, ok := b.LeafAt(index); !ok || leaf != ref.leaves[index] {
		fail("leaf", "LeafAt(%d) differs", index)
	}
	size := index + 1 + uint64(rng.Intn(len(ref.leaves)-int(index))) //nolint:gosec // small
	old := uint64(rng.Intn(int(size) + 1))                           //nolint:gosec // small
	if err := checkTree(b, ref.leaves, old, size, index); err != nil {
		fail("tree", "%v", err)
	}
}

// merkleRoot is the reference RFC 6962 tree head over leaf hashes,
// computed from the leaves alone.
func merkleRoot(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return Hash(sha256.Sum256(nil))
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(merkleRoot(leaves[:k]), merkleRoot(leaves[k:]))
}

// inclusionPath is the reference RFC 6962 audit path for leaf m over
// leaves.
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

// consistencyPath is the reference RFC 6962 consistency proof between
// the tree over the first m leaves and the tree over all of them.
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

// checkTree holds the log's tree to the reference over leaves, its
// sealed leaf hashes: the head at size, the inclusion proof of index in
// it and the consistency proof from old to it must equal the reference
// byte for byte, and both proofs must verify. old <= size; index < size
// unless size is 0.
func checkTree(b *Buffer, leaves []Hash, old, size, index uint64) error {
	head, err := b.TreeHeadAt(size)
	if err != nil || head.Root != merkleRoot(leaves[:size]) {
		return fmt.Errorf("TreeHeadAt(%d) = %v, %v; want root %v", size, head, err, merkleRoot(leaves[:size]))
	}
	cp, err := b.ConsistencyProof(nil, old, size)
	want := []Hash(nil)
	if old > 0 && old < size {
		want = consistencyPath(int(old), leaves[:size])
	}
	if err != nil || !slices.Equal(cp.Path, want) {
		return fmt.Errorf("ConsistencyProof(%d, %d) = %v, %v; want %v", old, size, cp.Path, err, want)
	}
	oldHead := TreeHead{Size: old, Root: merkleRoot(leaves[:old])}
	if !VerifyConsistency(oldHead, head, cp) {
		return fmt.Errorf("ConsistencyProof(%d, %d) does not verify", old, size)
	}
	if size == 0 {
		return nil
	}
	ip, err := b.InclusionProof(nil, index, size)
	want = inclusionPath(int(index), leaves[:size])
	if err != nil || !slices.Equal(ip.Path, want) {
		return fmt.Errorf("InclusionProof(%d, %d) = %v, %v; want %v", index, size, ip.Path, err, want)
	}
	if !VerifyInclusion(leaves[index], index, head, ip) {
		return fmt.Errorf("InclusionProof(%d, %d) does not verify", index, size)
	}
	return nil
}

// TestTreeMatchesReference holds every head and proof of a growing log
// to the reference: the head after every append up to 130 records,
// every (old, size, index) triple of every log up to 64 records, and
// random triples on logs of up to 1500 records across random rewrites.
func TestTreeMatchesReference(t *testing.T) {
	var b Buffer
	b.SetSealKey(nil)
	var leaves []Hash
	for n := uint64(1); n <= 130; n++ {
		r := Record{Kind: KindHelloTx, Fields: []Field{FInt("i", int(n))}}
		b.Append(r)
		leaves = append(leaves, LeafHash([]byte(r.String())))
		if head := b.TreeHead(); head.Size != n || head.Root != merkleRoot(leaves) {
			t.Fatalf("TreeHead at size %d = %v, want root %v", n, head, merkleRoot(leaves))
		}
		if n > 64 {
			continue
		}
		// The two proofs depend on (old, size) and (index, size) alone,
		// so walking both pairs covers every triple.
		for x := uint64(0); x <= n; x++ {
			if err := checkTree(&b, leaves, x, n, min(x, n-1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(24)) //nolint:gosec // test determinism
	for s := 0; s < 20; s++ {
		b := &Buffer{}
		ref := &refLog{sealed: true}
		b.SetSealKey(nil)
		for round := 0; round < 3; round++ {
			for n := rng.Intn(500); n > 0; n-- {
				r := randomRecord(rng)
				b.Append(r)
				ref.append(r)
			}
			for i := 0; i < 20 && len(ref.leaves) > 0; i++ {
				size := 1 + uint64(rng.Intn(len(ref.leaves))) //nolint:gosec // small
				old := uint64(rng.Intn(int(size) + 1))        //nolint:gosec // small
				index := uint64(rng.Intn(int(size)))          //nolint:gosec // small
				if err := checkTree(b, ref.leaves, old, size, index); err != nil {
					t.Fatalf("log %d round %d: %v", s, round, err)
				}
			}
			stride := uint64(2 + rng.Intn(5)) //nolint:gosec // small
			var kept []Record
			for i, r := range ref.recs {
				if uint64(i)%stride != 0 { //nolint:gosec // i >= 0
					kept = append(kept, r)
				}
			}
			ref.rewrite(kept)
			b.Rewrite(func(l Line) bool { return l.Seq%stride != 0 })
		}
	}
}

// TestAppendSecondsMatchesFloat pins the integer seconds rendering to the
// float one it stands in for, on random times and on every boundary it
// reasons about: whole, half and near-half milliseconds, the 10^6 s
// limit, negative times and the Duration extremes.
func TestAppendSecondsMatchesFloat(t *testing.T) {
	check := func(d time.Duration) {
		got := string(appendSeconds(nil, d))
		want := string(strconv.AppendFloat(nil, d.Seconds(), 'f', 3, 64))
		if got != want {
			t.Fatalf("appendSeconds(%d) = %s, want %s", int64(d), got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, -1, 499999, 500000, 500001, 999999, 1e6,
		1e6*time.Second - 1, 1e6 * time.Second, 1e6*time.Second + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 499999} {
		check(d)
	}
	rng := rand.New(rand.NewSource(5)) //nolint:gosec // test determinism
	for i := 0; i < 2_000_000; i++ {
		var d time.Duration
		switch i % 4 {
		case 0:
			d = time.Duration(rng.Int63n(int64(1e6 * time.Second)))
		case 1: // within a few ns of a millisecond or half-millisecond edge
			d = time.Duration(rng.Int63n(1e9))*time.Millisecond/2 + time.Duration(rng.Intn(7)-3)
		case 2: // short runs, where most virtual times lie
			d = time.Duration(rng.Int63n(int64(10 * time.Minute)))
		default:
			d = time.Duration(rng.Int63())
		}
		check(d)
	}
}
