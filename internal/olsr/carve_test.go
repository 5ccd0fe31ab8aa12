package olsr

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/wire"
)

// checkDisjoint verifies that no two live carved slices share backing
// storage: topology-destination and 2-hop cover tables, stored HELLO
// sets and duplicate windows. A slice's whole capacity counts, since a
// put or an append may write anywhere in it: carved slices are cut from
// one chunk, and one whose capacity ran into the next carve would
// overwrite a neighbour's elements.
func checkDisjoint(n *Node) error {
	type span struct {
		lo, hi uintptr
		name   string
	}
	var spans []span
	add := func(lo, hi uintptr, format string, args ...any) {
		if lo < hi {
			spans = append(spans, span{lo, hi, fmt.Sprintf(format, args...)})
		}
	}
	for _, e := range n.topo {
		lo, hi := storage(e.val.dests)
		add(lo, hi, "topology tuples from %v", e.key)
	}
	for _, e := range n.twoHop {
		lo, hi := storage(e.val)
		add(lo, hi, "2-hop tuples via %v", e.key)
	}
	for _, e := range n.lastHelloSym {
		lo, hi := storage(e.val)
		add(lo, hi, "HELLO set stored for %v", e.key)
	}
	for i, w := range n.dups.slots {
		lo, hi := storage(w)
		add(lo, hi, "duplicate window of %v", addr.NodeAt(i))
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("the %s and the %s share backing storage", spans[i-1].name, spans[i].name)
		}
	}
	return nil
}

// storage returns the address range of s's whole capacity.
func storage[T any](s []T) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T))
}

// refTopo is the map-based reference for one originator's topology
// tuples, following RFC 3626 §9.5 directly.
type refTopo struct {
	ansn  uint16
	dests map[addr.Node]time.Duration
}

// carveRig is one node taking TCs through two symmetric neighbors beside
// a map-based reference of its topology set.
type carveRig struct {
	t      *testing.T
	sched  *sim.Scheduler
	n      *Node
	ref    map[addr.Node]*refTopo
	seq    uint16
	msgSeq map[addr.Node]uint16
	step   string
}

var (
	carveVias  = []addr.Node{addr.NodeAt(2), addr.NodeAt(3)}
	carveOrigs = []addr.Node{addr.NodeAt(20), addr.NodeAt(21), addr.NodeAt(22), addr.NodeAt(23), addr.NodeAt(24)}
)

func newCarveRig(t *testing.T) *carveRig {
	sched := sim.New(1)
	return &carveRig{
		t: t, sched: sched,
		n:      New(Config{Addr: eqSelf}, sched, func([]byte) {}, nil),
		ref:    map[addr.Node]*refTopo{},
		msgSeq: map[addr.Node]uint16{},
	}
}

// hello has via advertise its symmetric link to the node and twoHop as
// further symmetric neighbors, which writes via's 2-hop cover table.
func (r *carveRig) hello(via addr.Node, twoHop ...addr.Node) {
	r.seq++
	h := &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: []wire.LinkBlock{
		{Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: append([]addr.Node{eqSelf}, twoHop...)},
	}}
	r.n.handleMessage(via, &wire.Message{VTime: neighborHold, Originator: via, TTL: 1, Seq: r.seq, Body: h})
}

// tc hands the node orig's TC through via, refreshing via's HELLO first
// so the sender is symmetric, and applies it to the reference.
func (r *carveRig) tc(via, orig addr.Node, ansn uint16, vtime time.Duration, adv ...addr.Node) {
	r.step = fmt.Sprintf("TC %v via %v ansn=%d vtime=%v adv=%v", orig, via, ansn, vtime, adv)
	r.hello(via)
	r.msgSeq[orig]++
	r.n.handleMessage(via, &wire.Message{VTime: vtime, Originator: orig, TTL: 2, Seq: r.msgSeq[orig],
		Body: &wire.TC{ANSN: ansn, Advertised: adv}})

	e := r.ref[orig]
	if e != nil && seqNewer(e.ansn, ansn) {
		return
	}
	if e == nil || seqNewer(ansn, e.ansn) {
		e = &refTopo{dests: map[addr.Node]time.Duration{}}
		r.ref[orig] = e
	}
	e.ansn = ansn
	for _, d := range adv {
		if d != eqSelf {
			e.dests[d] = r.sched.Now() + vtime
		}
	}
	r.check()
}

// advance moves time on by dt and runs an expiry pass on the node and the
// reference.
func (r *carveRig) advance(dt time.Duration) {
	r.step = "advance " + dt.String()
	r.sched.RunUntil(r.sched.Now() + dt)
	r.n.expire()
	now := r.sched.Now()
	for orig, e := range r.ref {
		for d, until := range e.dests {
			if until <= now {
				delete(e.dests, d)
			}
		}
		if len(e.dests) == 0 {
			delete(r.ref, orig)
		}
	}
	r.check()
}

// check holds TopologyLinks to the reference's live tuples and every
// table to its own storage.
func (r *carveRig) check() {
	r.t.Helper()
	now := r.sched.Now()
	var want [][2]addr.Node
	for orig, e := range r.ref {
		for d, until := range e.dests {
			if until > now {
				want = append(want, [2]addr.Node{orig, d})
			}
		}
	}
	slices.SortFunc(want, func(a, b [2]addr.Node) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	if got := r.n.TopologyLinks(); !slices.Equal(got, want) {
		r.t.Fatalf("t=%v after %s: topology links\n  %v\nreference\n  %v", now, r.step, got, want)
	}
	if err := checkOrdered(r.n); err != nil {
		r.t.Fatalf("t=%v after %s: %v", now, r.step, err)
	}
	if err := checkDisjoint(r.n); err != nil {
		r.t.Fatalf("t=%v after %s: %v", now, r.step, err)
	}
}

// TestCarvedTablesStayApart grows one originator's destination table past
// its carve while the tables carved beside it in the same chunk are live,
// then runs randomized TCs, ANSN resets, 2-hop writes and expiry. After
// every step TopologyLinks must equal a map-based reference and no two
// live tables may share storage.
func TestCarvedTablesStayApart(t *testing.T) {
	a, b, c := carveOrigs[0], carveOrigs[1], carveOrigs[2]
	d := func(i int) addr.Node { return addr.NodeAt(40 + i) }

	r := newCarveRig(t)
	r.hello(carveVias[0], d(9), d(10))
	r.hello(carveVias[1], d(11))
	r.tc(carveVias[0], a, 1, topologyHold, d(1), d(2)) // a's carve: two entries
	r.tc(carveVias[0], b, 1, topologyHold, d(3), d(4)) // b's, right after a's
	r.tc(carveVias[1], c, 1, topologyHold, d(5))       // c's, right after b's
	if err := checkDisjoint(r.n); err != nil {
		t.Fatal(err)
	}
	// The same ANSN adds tuples: a outgrows its carve while b and c are live.
	r.tc(carveVias[1], a, 1, topologyHold, d(6), d(7), d(8), d(1))
	r.advance(time.Second)
	r.tc(carveVias[0], b, 2, topologyHold, d(2), d(8)) // a newer ANSN reuses b's carve
	r.tc(carveVias[0], a, 3, 2*time.Second, d(3))      // a's reset to one tuple
	r.tc(carveVias[0], c, 1, topologyHold, d(1), d(2), d(3), d(4), d(6))
	r.hello(carveVias[1], d(11), d(12), d(13), d(14)) // the cover via 3 outgrows its carve
	r.check()
	r.advance(3 * time.Second) // a's only tuple expires and its entry goes
	r.tc(carveVias[1], a, 0, topologyHold, d(1), d(2), d(3))
	r.advance(topologyHold)

	// Randomized: ANSNs start just below the wrap and step both ways, so
	// stale, equal, newer and wrapped advertisements all occur.
	vtimes := []time.Duration{300 * time.Millisecond, time.Second, 5 * time.Second, topologyHold}
	pool := []addr.Node{eqSelf}
	for i := range 12 {
		pool = append(pool, d(i))
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
		r := newCarveRig(t)
		ansn := map[addr.Node]uint16{}
		for range 80 {
			switch x := rng.Intn(10); {
			case x < 6:
				orig := pick(rng, carveOrigs)
				if _, ok := ansn[orig]; !ok {
					ansn[orig] = 65533
				}
				ansn[orig] += uint16(rng.Intn(4)) - 1
				r.tc(pick(rng, carveVias), orig, ansn[orig], pick(rng, vtimes), subset(rng, pool, 8)...)
			case x < 8:
				r.hello(pick(rng, carveVias), subset(rng, pool[1:], 6)...)
				r.check()
			default:
				r.advance(time.Duration(rng.Intn(40)) * 100 * time.Millisecond)
			}
		}
	}
}
