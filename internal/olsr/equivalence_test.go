package olsr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The equivalence harness: the MPR memo, the expire gate, the per-entry
// topology bound and the duplicate expiry queue must be pure schedule
// changes. Two nodes with the same address run the same randomized op
// sequence on identically seeded schedulers. The reference node is forced
// eager before every op — mprStale set, nextExpiry and every topology
// entry's next cleared, and every duplicate tuple queued at 0 — so each
// afterTopologyChange re-derives and each tick examines every tuple, which
// is the schedule these gates replaced. Audit records, emitted packets,
// the retained neighbor and MPR sets, routes and every protocol table must
// then match step for step.
//
// A third node, memoised like the first but with no audit log attached,
// takes the same ops: logging is observation only, so its tables, its
// packets and its record count must match the logged memo node's.

var (
	eqSelf  = addr.NodeAt(1)
	eqPeers = []addr.Node{addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)}
	eqFar   = []addr.Node{addr.NodeAt(7), addr.NodeAt(8), addr.NodeAt(9), addr.NodeAt(10)}
	// eqVTimes mixes validity times shorter than the 500ms tick with
	// RFC-default holds; zero writes a tuple that is dead on arrival.
	eqVTimes = []time.Duration{0, 50 * time.Millisecond, 300 * time.Millisecond,
		time.Second, 2 * time.Second, 6 * time.Second, 15 * time.Second}
	eqWills = []wire.Willingness{wire.WillDefault, wire.WillDefault, wire.WillDefault,
		wire.WillNever, wire.WillLow, wire.WillHigh, wire.WillAlways}
)

// eqPair is one memoised node and its eager reference, plus the
// memoised node's unlogged twin.
type eqPair struct {
	t            *testing.T
	memo, eager  *Node
	bare         *Node // memoised, no audit log
	memoLog      *auditlog.Buffer
	eagerLog     *auditlog.Buffer
	memoSent     []string
	eagerSent    []string
	bareSent     []string
	cursor       uint64
	step         string
	derivedNow   bool // the last op ran afterTopologyChange unconditionally
	msgSeq, ansn map[addr.Node]uint16
}

func newEqPair(t *testing.T, seed int64) *eqPair {
	p := &eqPair{t: t, msgSeq: make(map[addr.Node]uint16), ansn: make(map[addr.Node]uint16)}
	mk := func(sent *[]string) (*Node, *auditlog.Buffer) {
		logb := &auditlog.Buffer{}
		return New(Config{Addr: eqSelf}, sim.New(seed), func(b []byte) { *sent = append(*sent, fmt.Sprintf("%x", b)) }, logb), logb
	}
	p.memo, p.memoLog = mk(&p.memoSent)
	p.eager, p.eagerLog = mk(&p.eagerSent)
	p.bare = New(Config{Addr: eqSelf}, sim.New(seed), func(b []byte) { p.bareSent = append(p.bareSent, fmt.Sprintf("%x", b)) }, nil)
	return p
}

// do applies one op to every node, forcing the reference eager first, and
// then compares every observable.
func (p *eqPair) do(step string, op func(n *Node)) {
	p.t.Helper()
	p.step = step
	forceEager(p.eager)
	op(p.memo)
	op(p.eager)
	op(p.bare)
	p.compare()
}

// checkRecords verifies that a node with an audit log attached counts
// exactly the records its log holds.
func checkRecords(n *Node) error {
	if n.logb != nil && n.Records() != n.logb.Len() {
		return fmt.Errorf("the node counts %d records, its log holds %d", n.Records(), n.logb.Len())
	}
	return nil
}

// forceEager opens every gate on n, so its next afterTopologyChange
// re-derives and its next tick examines every tuple of every table.
func forceEager(n *Node) {
	n.mprStale = true
	n.nextExpiry = 0
	for i := range n.topo {
		n.topo[i].val.next = 0
	}
	n.dupQueue = n.dupQueue[:0]
	for k := range n.dups.all() {
		n.dupQueue = append(n.dupQueue, dupExpiry{at: 0, key: k})
	}
}

func (p *eqPair) fail(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("t=%s after %s: %s", p.memo.now(), p.step, fmt.Sprintf(format, args...))
}

func (p *eqPair) compare() {
	p.t.Helper()
	got, _ := p.memoLog.Since(p.cursor)
	want, next := p.eagerLog.Since(p.cursor)
	if len(got) != len(want) {
		p.fail("%d audit records, eager reference wrote %d:\nmemo  %v\neager %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			p.fail("audit record diverged:\nmemo  %s\neager %s", got[i].String(), want[i].String())
		}
	}
	p.cursor = next
	if !slices.Equal(p.memoSent, p.eagerSent) {
		p.fail("emitted packets diverged:\nmemo  %v\neager %v", p.memoSent, p.eagerSent)
	}
	if !slices.Equal(p.memoSent, p.bareSent) {
		p.fail("emitted packets diverged:\nlogged   %v\nunlogged %v", p.memoSent, p.bareSent)
	}
	p.memoSent, p.eagerSent, p.bareSent = p.memoSent[:0], p.eagerSent[:0], p.bareSent[:0]
	if g, w := p.bare.Records(), p.memo.Records(); g != w {
		p.fail("the unlogged node counts %d records, the logged one %d", g, w)
	}
	if !p.memo.mprs.Equal(p.eager.mprs) || !p.memo.prevSym.Equal(p.eager.prevSym) {
		p.fail("mprs %v sym %v, eager reference mprs %v sym %v",
			p.memo.mprs, p.memo.prevSym, p.eager.mprs, p.eager.prevSym)
	}
	if g, w := fmt.Sprint(p.memo.Routes()), fmt.Sprint(p.eager.Routes()); g != w {
		p.fail("routes diverged:\nmemo  %s\neager %s", g, w)
	}
	for _, n := range []*Node{p.memo, p.eager} {
		if err := checkOrdered(n); err != nil {
			p.fail("%v", err)
		}
		if err := checkDisjoint(n); err != nil {
			p.fail("%v", err)
		}
		if err := checkRecords(n); err != nil {
			p.fail("%v", err)
		}
	}
	if g, w := snapshot(p.memo), snapshot(p.eager); g != w {
		p.fail("protocol tables diverged:\nmemo\n%s\neager\n%s", g, w)
	}
	if g, w := snapshot(p.bare), snapshot(p.memo); g != w {
		p.fail("protocol tables diverged:\nunlogged\n%s\nlogged\n%s", g, w)
	}
	if p.derivedNow {
		p.derivedNow = false
		sym := p.memo.SymNeighbors(nil)
		mprs, _ := p.memo.selectMPRs(sym)
		if !sym.Equal(p.memo.prevSym) || !mprs.Equal(p.memo.mprs) {
			p.fail("memo holds sym %v mprs %v, a fresh derivation gives sym %v mprs %v",
				p.memo.prevSym, p.memo.mprs, sym, mprs)
		}
	}
}

// snapshot renders every protocol table as sorted lines. Empty 2-hop
// cover tables render nothing: they carry no tuple and no behaviour.
func snapshot(n *Node) string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for _, e := range n.links {
		lt := e.val
		add("link %v sym=%d asym=%d until=%d will=%d", e.key, lt.symUntil, lt.asymUntil, lt.until, lt.will)
	}
	for _, cover := range n.twoHop {
		for _, e := range cover.val {
			add("twohop %v %v %d", cover.key, e.key, e.val)
		}
	}
	for _, e := range n.selectors {
		add("selector %v %d", e.key, e.val)
	}
	for _, t := range n.topo {
		add("topo %v ansn=%d", t.key, t.val.ansn)
		for _, e := range t.val.dests {
			add("topo %v -> %v %d", t.key, e.key, e.val)
		}
	}
	for k, d := range n.dups.all() {
		add("dup %s %d %v %v", dupName(k), d.until, d.processed, d.retransmitted)
	}
	for _, e := range n.lastHelloSym {
		add("advertised %v %v", e.key, e.val)
	}
	slices.Sort(lines)
	return fmt.Sprintf("ansn=%d stats=%+v\n%s", n.ansn, n.Stats(), strings.Join(lines, "\n"))
}

// ordered reports whether t's keys strictly ascend.
func ordered[V any](t table[V]) bool {
	for i := 1; i < len(t); i++ {
		if t[i-1].key >= t[i].key {
			return false
		}
	}
	return true
}

// checkOrdered verifies that every table of n, nested ones included,
// holds strictly ascending keys.
func checkOrdered(n *Node) error {
	for _, t := range []struct {
		name string
		ok   bool
	}{
		{"link", ordered(n.links)}, {"2-hop", ordered(n.twoHop)}, {"selector", ordered(n.selectors)},
		{"topology", ordered(n.topo)}, {"advertised", ordered(n.lastHelloSym)}, {"route", ordered(n.routes)},
		{"coverage", ordered(n.coverage)}, {"reach", ordered(n.reachCount)},
	} {
		if !t.ok {
			return fmt.Errorf("the %s table is out of order", t.name)
		}
	}
	for _, e := range n.twoHop {
		if !ordered(e.val) {
			return fmt.Errorf("the 2-hop tuples via %v are out of order", e.key)
		}
	}
	for _, e := range n.topo {
		if !ordered(e.val.dests) {
			return fmt.Errorf("the topology tuples from %v are out of order", e.key)
		}
	}
	return nil
}

// checkSwept reports a swept table that still holds a tuple that has
// expired.
func checkSwept(n *Node) error {
	now := n.now()
	for _, e := range n.links {
		if lt := e.val; max(lt.until, lt.asymUntil, lt.symUntil) <= now {
			return fmt.Errorf("expired link tuple %v survived the tick", e.key)
		}
	}
	for _, cover := range n.twoHop {
		for _, e := range cover.val {
			if e.val <= now {
				return fmt.Errorf("expired 2-hop tuple %v via %v survived the tick", e.key, cover.key)
			}
		}
	}
	for _, e := range n.selectors {
		if e.val <= now {
			return fmt.Errorf("expired selector %v survived the tick", e.key)
		}
	}
	for _, t := range n.topo {
		if len(t.val.dests) == 0 {
			return fmt.Errorf("empty topology entry %v survived the tick", t.key)
		}
		for _, e := range t.val.dests {
			if e.val <= now {
				return fmt.Errorf("expired topology tuple %v -> %v survived the tick", t.key, e.key)
			}
		}
	}
	for k, d := range n.dups.all() {
		if d.until <= now {
			return fmt.Errorf("expired duplicate tuple %s survived the tick", dupName(k))
		}
	}
	return checkDupQueue(n)
}

// assertSwept fails if a swept table still holds a tuple that has expired.
func (p *eqPair) assertSwept() {
	p.t.Helper()
	if err := checkSwept(p.memo); err != nil {
		p.fail("%v", err)
	}
}

// dupName renders a duplicate key as originator/sequence.
func dupName(k dupKey) string { return fmt.Sprintf("%v/%d", addr.Node(k>>16), uint16(k)) }

// checkDupQueue verifies the duplicate expiry queue's invariant: it is a
// min-heap on at holding exactly one entry per duplicate tuple, queued at
// or before that tuple's until. It checks the duplicate set first
// (checkDupSet).
func checkDupQueue(n *Node) error {
	dups, err := checkDupSet(&n.dups)
	if err != nil {
		return err
	}
	q := n.dupQueue
	if len(q) != len(dups) {
		return fmt.Errorf("expiry queue holds %d entries for %d duplicate tuples", len(q), len(dups))
	}
	seen := make(map[dupKey]bool, len(q))
	for i, e := range q {
		if i > 0 && q[(i-1)/2].at > e.at {
			return fmt.Errorf("expiry queue is out of heap order at entry %d", i)
		}
		d, ok := dups[e.key]
		switch {
		case !ok:
			return fmt.Errorf("expiry queue holds %s, which is not in the duplicate set", dupName(e.key))
		case seen[e.key]:
			return fmt.Errorf("expiry queue holds %s twice", dupName(e.key))
		case e.at > d.until:
			return fmt.Errorf("duplicate tuple %s queued at %v, after its until %v", dupName(e.key), e.at, d.until)
		}
		seen[e.key] = true
	}
	return nil
}

// assertHelloSym checks that the HELLO_RX record written since start
// renders h's advertised set.
func (p *eqPair) assertHelloSym(start uint64, h *wire.Hello) {
	p.t.Helper()
	recs, _ := p.memoLog.Since(start)
	advertised := auditlog.Record{Fields: []auditlog.Field{auditlog.FNodes("sym", h.SymNeighbors(nil))}}
	want, _ := advertised.Get("sym")
	for _, r := range recs {
		if r.Kind == auditlog.KindHelloRx {
			if got, _ := r.Get("sym"); got != want {
				p.fail("HELLO_RX sym=%q, the HELLO advertised %q", got, want)
			}
			return
		}
	}
	p.fail("no HELLO_RX record")
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// subset draws up to limit nodes from pool, duplicates allowed.
func subset(rng *rand.Rand, pool []addr.Node, limit int) []addr.Node {
	out := make([]addr.Node, rng.Intn(limit+1))
	for i := range out {
		out[i] = pick(rng, pool)
	}
	return out
}

// nextSeq returns a fresh message sequence number for orig, or repeats the
// last one now and then so the duplicate set is exercised.
func (p *eqPair) nextSeq(rng *rand.Rand, orig addr.Node) uint16 {
	if rng.Intn(5) != 0 {
		p.msgSeq[orig]++
	}
	return p.msgSeq[orig]
}

// randomHello builds a HELLO with random link blocks over every link code.
// One in four is a bare refresh that lists only this node, so a shorter
// VTime can cut a symmetric link's or a selector's life with no 2-hop
// tuple written alongside.
func randomHello(rng *rand.Rand) *wire.Hello {
	everyone := append(append([]addr.Node{eqSelf, eqSelf}, eqPeers...), eqFar...)
	h := &wire.Hello{HTime: 2 * time.Second, Will: pick(rng, eqWills)}
	if rng.Intn(4) == 0 {
		nt := wire.NeighSym + wire.NeighborType(rng.Intn(2)) // SYM or MPR
		h.Links = []wire.LinkBlock{{Code: wire.MakeLinkCode(nt, wire.LinkSym), Neighbors: []addr.Node{eqSelf}}}
		return h
	}
	for range rng.Intn(4) + 1 {
		nt := wire.NeighborType(rng.Intn(3))                      // NOT, SYM, MPR
		code := wire.MakeLinkCode(nt, wire.LinkType(rng.Intn(4))) // UNSPEC, ASYM, SYM, LOST
		h.Links = append(h.Links, wire.LinkBlock{Code: code, Neighbors: subset(rng, everyone, 4)})
	}
	return h
}

// randomStep applies one random op to the pair.
func (p *eqPair) randomStep(rng *rand.Rand) {
	everyone := append(append([]addr.Node{eqSelf}, eqPeers...), eqFar...)
	switch r := rng.Intn(100); {
	case r < 25:
		dt := time.Duration(rng.Intn(31)) * 100 * time.Millisecond
		p.do("advance "+dt.String(), func(n *Node) { n.sched.RunUntil(n.now() + dt) })
	case r < 55:
		from := pick(rng, eqPeers)
		h := randomHello(rng)
		m := wire.Message{VTime: pick(rng, eqVTimes), Originator: from, TTL: 1, Seq: p.nextSeq(rng, from), Body: h}
		p.derivedNow = true
		start := p.memoLog.NextSeq()
		p.do(fmt.Sprintf("HELLO %v %+v", from, h), func(n *Node) { n.handleMessage(from, &m) })
		p.assertHelloSym(start, h)
	case r < 70:
		orig := pick(rng, append(eqPeers, eqFar...))
		// ANSNs start just below the wrap and step both ways, so stale,
		// equal, newer and wrapped advertisements all occur.
		if _, ok := p.ansn[orig]; !ok {
			p.ansn[orig] = 65533
		}
		p.ansn[orig] += uint16(rng.Intn(5)) - 1
		tc := &wire.TC{ANSN: p.ansn[orig], Advertised: subset(rng, everyone, 4)}
		m := wire.Message{VTime: pick(rng, eqVTimes), Originator: orig, TTL: uint8(rng.Intn(4) + 1), Seq: p.nextSeq(rng, orig), Body: tc}
		sender := pick(rng, eqPeers)
		p.do(fmt.Sprintf("TC %v via %v %+v", orig, sender, tc), func(n *Node) { n.handleMessage(sender, &m) })
	case r < 85:
		p.do("tick", func(n *Node) { n.expire() })
		p.assertSwept()
	case r < 90:
		p.do("emit", func(n *Node) { n.sendHello(); n.sendTC() })
	default:
		// A flooded MID (type 3) or HNA (type 4), which the node relays
		// without processing (RFC 3626 §3.4).
		orig := pick(rng, append(eqPeers, eqFar...))
		raw := &wire.RawBody{Type: wire.MessageType(3 + rng.Intn(2)), Data: []byte{10, 0, 0, byte(100 + rng.Intn(3))}}
		m := wire.Message{VTime: pick(rng, eqVTimes), Originator: orig, TTL: 3, Seq: p.nextSeq(rng, orig), Body: raw}
		sender := pick(rng, eqPeers)
		p.do(fmt.Sprintf("%v %v %x", raw.Type, orig, raw.Data), func(n *Node) { n.handleMessage(sender, &m) })
	}
}

// TestScheduleEquivalence drives 1000 randomized op sequences through a
// memoised node and its eager reference.
func TestScheduleEquivalence(t *testing.T) {
	const (
		sequences = 1000
		steps     = 60
	)
	var derivations, skipped uint64
	for seed := int64(1); seed <= sequences; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
		p := newEqPair(t, seed)
		for range steps {
			p.randomStep(rng)
		}
		derivations += p.memo.mprDerivations
		skipped += p.eager.mprDerivations - p.memo.mprDerivations
	}
	// The campaign must exercise the memo, not only the stale path.
	if skipped == 0 {
		t.Fatalf("the memo skipped no re-derivation in %d sequences (%d derivations)", sequences, derivations)
	}
}

// TestMemoHoldsInSteadyState pins the saving itself: HELLO refreshes, TCs
// and ticks that change no input must neither re-derive the MPR set nor
// sweep, while a real change still re-derives at once.
func TestMemoHoldsInSteadyState(t *testing.T) {
	sched := sim.New(1)
	n := New(Config{Addr: eqSelf}, sched, func([]byte) {}, nil)
	var seq uint16
	hello := func(from addr.Node, twoHop ...addr.Node) {
		seq++
		h := &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: []wire.LinkBlock{
			{Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: append([]addr.Node{eqSelf}, twoHop...)},
		}}
		n.handleMessage(from, &wire.Message{VTime: 6 * time.Second, Originator: from, TTL: 1, Seq: seq, Body: h})
	}
	tc := func() {
		seq++
		n.handleMessage(addr.NodeAt(2), &wire.Message{VTime: 15 * time.Second, Originator: addr.NodeAt(7),
			TTL: 2, Seq: seq, Body: &wire.TC{ANSN: 1, Advertised: []addr.Node{addr.NodeAt(9)}}})
	}
	hello(addr.NodeAt(2), addr.NodeAt(7))
	hello(addr.NodeAt(3), addr.NodeAt(8))
	n.expire()
	if want := addr.NewSet(addr.NodeAt(2), addr.NodeAt(3)); !n.mprs.Equal(want) {
		t.Fatalf("mprs = %v, want %v", n.mprs, want)
	}

	// An empty cover table is dropped by any sweep and matters to nothing
	// else, so it survives exactly as long as the gate keeps the sweep off.
	n.twoHop.put(addr.NodeAt(99))
	base := n.mprDerivations
	for range 8 { // 4s: every tuple still has at least 2s to live
		sched.RunUntil(sched.Now() + 500*time.Millisecond)
		hello(addr.NodeAt(2), addr.NodeAt(7))
		hello(addr.NodeAt(3), addr.NodeAt(8))
		tc()
		n.expire()
	}
	if n.mprDerivations != base {
		t.Fatalf("steady state re-derived the MPR set %d times: the memo is bypassed", n.mprDerivations-base)
	}
	if n.twoHop.get(addr.NodeAt(99)) == nil {
		t.Fatal("a tick with nothing expired swept the tables: the expire gate is bypassed")
	}

	hello(addr.NodeAt(2), addr.NodeAt(7), addr.NodeAt(10)) // a new 2-hop tuple
	if n.mprDerivations != base+1 {
		t.Fatalf("a new 2-hop tuple ran %d re-derivations, want 1", n.mprDerivations-base)
	}
}

// TestDuplicateLateRefresh scripts a copy that refreshes a duplicate tuple
// just before its first expiry check. The check must re-queue the tuple at
// its refreshed until instead of dropping it, and a copy arriving after the
// real expiry must be handled as a new message.
func TestDuplicateLateRefresh(t *testing.T) {
	sched := sim.New(1)
	logb := &auditlog.Buffer{}
	sent := 0
	n := New(Config{Addr: eqSelf}, sched, func([]byte) { sent++ }, logb)
	nbr, orig := addr.NodeAt(2), addr.NodeAt(7)
	var helloSeq uint16
	hello := func() { // nbr selects n as its MPR
		helloSeq++
		h := &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: []wire.LinkBlock{
			{Code: wire.MakeLinkCode(wire.NeighMPR, wire.LinkSym), Neighbors: []addr.Node{eqSelf}},
		}}
		n.handleMessage(nbr, &wire.Message{VTime: 6 * time.Second, Originator: nbr, TTL: 1, Seq: helloSeq, Body: h})
	}
	// advance runs the 500ms ticks up to and including t, with nbr's HELLO
	// every 2s ahead of the tick, as the node's own timers would.
	var tick time.Duration
	advance := func(t time.Duration) {
		for ; tick <= t; tick += expiryTick {
			sched.RunUntil(tick)
			if tick%(2*time.Second) == 0 {
				hello()
			}
			n.expire()
		}
	}
	key := newDupKey(orig, 1)
	held := func() bool {
		for k := range n.dups.all() {
			if k == key {
				return true
			}
		}
		return false
	}
	// deliver hands n a copy of the same TC and returns the kinds it logged.
	deliver := func() []auditlog.Kind {
		start := logb.NextSeq()
		n.handleMessage(nbr, &wire.Message{VTime: 15 * time.Second, Originator: orig, TTL: 3, Seq: 1,
			Body: &wire.TC{ANSN: 1, Advertised: []addr.Node{addr.NodeAt(9)}}})
		recs, _ := logb.Since(start)
		var kinds []auditlog.Kind
		for _, r := range recs {
			kinds = append(kinds, r.Kind)
		}
		return kinds
	}
	processed := []auditlog.Kind{auditlog.KindTCRx, auditlog.KindTCFwd}

	const t0 = 10 * time.Second
	advance(t0)
	if got := deliver(); !slices.Equal(got, processed) || sent != 1 {
		t.Fatalf("first copy logged %v and sent %d packets, want %v and 1", got, sent, processed)
	}
	advance(t0 + 29*time.Second)
	if got, want := deliver(), []auditlog.Kind{auditlog.KindMsgDrop}; !slices.Equal(got, want) || sent != 1 {
		t.Fatalf("copy at t0+29s logged %v and sent %d packets, want %v and 1", got, sent, want)
	}
	advance(t0 + 30*time.Second)
	if !held() {
		t.Fatal("the t0+30s tick dropped a tuple refreshed at t0+29s")
	}
	advance(t0 + 59*time.Second - expiryTick)
	if !held() {
		t.Fatal("a tick before t0+59s dropped the refreshed tuple")
	}
	advance(t0 + 59*time.Second)
	if held() {
		t.Fatal("the t0+59s tick kept a tuple that expired")
	}
	if err := checkDupQueue(n); err != nil {
		t.Fatal(err)
	}
	if got := deliver(); !slices.Equal(got, processed) || sent != 2 {
		t.Fatalf("copy after the drop logged %v and sent %d packets in all, want %v and 2", got, sent, processed)
	}
}
