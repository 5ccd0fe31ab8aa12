package olsr

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testNet wires several OLSR nodes over a simulated unit-disk medium with
// static positions.
type testNet struct {
	sched  *sim.Scheduler
	medium *radio.Medium
	nodes  map[addr.Node]*Node
	logs   map[addr.Node]*auditlog.Buffer
	order  []addr.Node
}

func newTestNet(seed int64, rangeM float64, positions map[addr.Node]geo.Point) *testNet {
	sched := sim.New(seed)
	tn := &testNet{
		sched:  sched,
		medium: radio.NewMedium(sched, radio.Config{Prop: radio.UnitDisk{Range: rangeM}}),
		nodes:  make(map[addr.Node]*Node),
		logs:   make(map[addr.Node]*auditlog.Buffer),
	}
	for _, id := range addr.NewSet(keys(positions)...) {
		tn.addNode(id, positions[id], Config{Addr: id})
	}
	return tn
}

func keys(m map[addr.Node]geo.Point) []addr.Node {
	out := make([]addr.Node, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// twoHopSet returns n's strict 2-hop neighborhood: the nodes its
// symmetric neighbors advertise, minus n and its own neighbors.
func twoHopSet(n *Node) addr.Set {
	sym := n.SymNeighbors(nil)
	var out addr.Set
	for _, via := range sym {
		for _, e := range n.cover(via) {
			if b := e.key; n.Covers(via, b) && b != n.cfg.Addr && !sym.Has(b) {
				out.Add(b)
			}
		}
	}
	return out
}

func (tn *testNet) addNode(id addr.Node, pos geo.Point, cfg Config) *Node {
	logb := &auditlog.Buffer{}
	// The medium retains payloads until delivery and the node reuses its
	// encode buffer, so the send callback must hand over a copy.
	node := New(cfg, tn.sched, func(b []byte) {
		tn.medium.Send(id, addr.Broadcast, append([]byte(nil), b...))
	}, logb)
	tn.medium.Attach(id, func() geo.Point { return pos }, func(f radio.Frame) {
		node.HandlePacket(f.From, f.Payload)
	})
	tn.nodes[id] = node
	tn.logs[id] = logb
	tn.order = append(tn.order, id)
	return node
}

func (tn *testNet) start() {
	for _, id := range tn.order {
		tn.nodes[id].Start()
	}
}

func (tn *testNet) run(d time.Duration) {
	tn.sched.RunUntil(tn.sched.Now() + d)
}

// newLossyTestNet is newTestNet with a lossy medium.
func newLossyTestNet(seed int64, rangeM, loss float64, positions map[addr.Node]geo.Point) *testNet {
	sched := sim.New(seed)
	tn := &testNet{
		sched: sched,
		medium: radio.NewMedium(sched, radio.Config{
			Prop: radio.LossyDisk{Range: rangeM, Loss: loss},
		}),
		nodes: make(map[addr.Node]*Node),
		logs:  make(map[addr.Node]*auditlog.Buffer),
	}
	for _, id := range addr.NewSet(keys(positions)...) {
		tn.addNode(id, positions[id], Config{Addr: id})
	}
	return tn
}

// lineNet builds n nodes on a horizontal line with the given spacing; with
// spacing just under the radio range, node i hears only i-1 and i+1.
func lineNet(seed int64, n int, spacing, rangeM float64) *testNet {
	pos := make(map[addr.Node]geo.Point)
	for i, p := range mobility.LinePlacement(geo.Pt(0, 0), spacing, n) {
		pos[addr.NodeAt(i+1)] = p
	}
	return newTestNet(seed, rangeM, pos)
}

func TestTwoNodesBecomeSymmetric(t *testing.T) {
	tn := lineNet(1, 2, 100, 150)
	tn.start()
	tn.run(10 * time.Second)

	a, b := tn.nodes[addr.NodeAt(1)], tn.nodes[addr.NodeAt(2)]
	if !a.IsSymNeighbor(addr.NodeAt(2)) {
		t.Error("A does not see B as symmetric")
	}
	if !b.IsSymNeighbor(addr.NodeAt(1)) {
		t.Error("B does not see A as symmetric")
	}
}

func TestOutOfRangeNodesStayStrangers(t *testing.T) {
	tn := lineNet(1, 2, 500, 150)
	tn.start()
	tn.run(10 * time.Second)
	if len(tn.nodes[addr.NodeAt(1)].SymNeighbors(nil)) != 0 {
		t.Error("out-of-range nodes became neighbors")
	}
}

func TestChainTwoHopAndMPR(t *testing.T) {
	tn := lineNet(2, 3, 100, 150)
	tn.start()
	tn.run(15 * time.Second)

	a := tn.nodes[addr.NodeAt(1)]
	b := addr.NodeAt(2)
	c := addr.NodeAt(3)

	if !twoHopSet(a).Has(c) {
		t.Fatalf("A's 2-hop set %v does not contain C", twoHopSet(a))
	}
	if !a.MPRs().Has(b) {
		t.Fatalf("A's MPR set %v does not contain B", a.MPRs())
	}
	if !tn.nodes[b].MPRSelectors(nil).Has(addr.NodeAt(1)) {
		t.Fatalf("B's selector set %v does not contain A", tn.nodes[b].MPRSelectors(nil))
	}
	r, ok := a.RouteTo(c)
	if !ok {
		t.Fatal("A has no route to C")
	}
	if r.NextHop != b || r.Hops != 2 {
		t.Errorf("route A->C = %+v, want via B, 2 hops", r)
	}
}

func TestFiveNodeLineRoutes(t *testing.T) {
	tn := lineNet(3, 5, 100, 150)
	tn.start()
	tn.run(40 * time.Second)

	a := tn.nodes[addr.NodeAt(1)]
	for i := 2; i <= 5; i++ {
		r, ok := a.RouteTo(addr.NodeAt(i))
		if !ok {
			t.Fatalf("no route to node %d; routes=%v", i, a.Routes())
		}
		if r.Hops != i-1 {
			t.Errorf("route to node %d: %d hops, want %d", i, r.Hops, i-1)
		}
		if r.NextHop != addr.NodeAt(2) {
			t.Errorf("route to node %d via %v, want via node 2", i, r.NextHop)
		}
	}
	// And from the middle outwards.
	cNode := tn.nodes[addr.NodeAt(3)]
	for _, tc := range []struct {
		dst  int
		hops int
	}{{1, 2}, {2, 1}, {4, 1}, {5, 2}} {
		r, ok := cNode.RouteTo(addr.NodeAt(tc.dst))
		if !ok || r.Hops != tc.hops {
			t.Errorf("route 3->%d = %+v ok=%v, want %d hops", tc.dst, r, ok, tc.hops)
		}
	}
}

func TestTTLDecrementAndHopCount(t *testing.T) {
	tn := lineNet(4, 4, 100, 150)
	tn.start()
	tn.run(40 * time.Second)
	// Node 4 must have learned node 1's topology through two forwards.
	n4 := tn.nodes[addr.NodeAt(4)]
	found := false
	for _, link := range n4.TopologyLinks() {
		if link[0] == addr.NodeAt(1) || link[1] == addr.NodeAt(1) {
			found = true
		}
	}
	if !found {
		t.Errorf("node 4 never learned node 1's topology: %v", n4.TopologyLinks())
	}
}

func TestMPRCoverageInvariant(t *testing.T) {
	// Property: after convergence, every strict 2-hop neighbor is covered
	// by at least one MPR. Checked on several random uniform topologies.
	for _, seed := range []int64{7, 8, 9, 10} {
		sched := sim.New(seed)
		arena := geo.Arena(400, 400)
		pts := mobility.UniformPlacement(sched.Rand(), arena, 16)
		pos := make(map[addr.Node]geo.Point, len(pts))
		for i, p := range pts {
			pos[addr.NodeAt(i+1)] = p
		}
		tn := newTestNet(seed, 150, pos)
		tn.start()
		tn.run(30 * time.Second)

		for _, id := range tn.order {
			n := tn.nodes[id]
			mprs := n.MPRs()
			for _, twoHop := range twoHopSet(n) {
				covered := false
				for _, m := range mprs {
					if n.Covers(m, twoHop) {
						covered = true
						break
					}
				}
				if !covered {
					t.Errorf("seed %d: node %v: 2-hop %v not covered by MPRs %v",
						seed, id, twoHop, mprs)
				}
			}
		}
	}
}

// advertiseWill makes a node's HELLOs carry will instead of WillDefault.
func advertiseWill(will wire.Willingness) Hooks {
	return Hooks{ModifyHello: func(h *wire.Hello) { h.Will = will }}
}

func TestWillNeverNeverSelected(t *testing.T) {
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(3): geo.Pt(200, 0),
	}
	tn := newTestNet(5, 150, pos)
	tn.addNode(addr.NodeAt(2), geo.Pt(100, 0), Config{Addr: addr.NodeAt(2)}).SetHooks(advertiseWill(wire.WillNever))
	tn.start()
	tn.run(20 * time.Second)

	if tn.nodes[addr.NodeAt(1)].MPRs().Has(addr.NodeAt(2)) {
		t.Error("WILL_NEVER node selected as MPR")
	}
}

func TestWillAlwaysAlwaysSelected(t *testing.T) {
	// Triangle + far node: 1 hears 2 and 3; 4 is 2-hop via both 2 and 3.
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(3): geo.Pt(100, 50),
		addr.NodeAt(4): geo.Pt(200, 0),
	}
	tn := newTestNet(6, 150, pos)
	tn.addNode(addr.NodeAt(2), geo.Pt(100, -50), Config{Addr: addr.NodeAt(2)}).SetHooks(advertiseWill(wire.WillAlways))
	tn.start()
	tn.run(20 * time.Second)

	if !tn.nodes[addr.NodeAt(1)].MPRs().Has(addr.NodeAt(2)) {
		t.Errorf("WILL_ALWAYS neighbor not selected as MPR: %v", tn.nodes[addr.NodeAt(1)].MPRs())
	}
}

func TestNeighborLossAfterSilence(t *testing.T) {
	tn := lineNet(7, 2, 100, 150)
	tn.start()
	tn.run(10 * time.Second)
	a := tn.nodes[addr.NodeAt(1)]
	if !a.IsSymNeighbor(addr.NodeAt(2)) {
		t.Fatal("precondition: not symmetric")
	}

	tn.nodes[addr.NodeAt(2)].Stop()
	tn.medium.SetDown(addr.NodeAt(2), true)
	tn.run(10 * time.Second) // > NeighborHold (6s)

	if a.IsSymNeighbor(addr.NodeAt(2)) {
		t.Error("A still sees the dead node as symmetric")
	}
	downLogged := false
	recs, _ := tn.logs[addr.NodeAt(1)].Since(0)
	for _, r := range recs {
		if r.Kind == auditlog.KindNeighborDown {
			if nb, err := r.NodeField("neighbor"); err == nil && nb == addr.NodeAt(2) {
				downLogged = true
			}
		}
	}
	if !downLogged {
		t.Error("NEIGHBOR_DOWN never logged")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// In a 5-node line, MPR forwarding echoes TCs back to nodes that have
	// already seen them: node 3 hears TC(orig=2) both directly and via
	// node 4's retransmission. Those copies must be dropped (reason
	// own/dup) and logged. (A full mesh would have no MPRs and hence no TC
	// traffic at all.)
	tn := lineNet(8, 5, 100, 150)
	tn.start()
	tn.run(30 * time.Second)

	sawOwn, sawDup := false, false
	for _, id := range tn.order {
		recs, _ := tn.logs[id].Since(0)
		for _, r := range recs {
			if r.Kind != auditlog.KindMsgDrop {
				continue
			}
			switch reason, _ := r.Get("reason"); reason {
			case "own":
				sawOwn = true
			case "dup":
				sawDup = true
			}
		}
	}
	if !sawOwn {
		t.Error("no MSG_DROP reason=own records (forwarders never echoed an originator)")
	}
	if !sawDup {
		t.Error("no MSG_DROP reason=dup records")
	}
	if tn.nodes[addr.NodeAt(2)].Stats().MsgDrop == 0 {
		t.Error("node 2 dropped nothing")
	}
}

func TestDropForwardHookBlocksFlooding(t *testing.T) {
	// Chain 1-2-3-4 where node 2 black-holes every TC it should forward:
	// node 1's own TCs never cross node 2, so nodes 3 and 4 never learn
	// topology *originated by* node 1. (Routes to node 1 can still exist
	// through node 2's own TC advertising its selectors — that is correct
	// OLSR behavior and exactly why drop detection needs the log analysis
	// of §III rather than reachability checks.)
	tn := lineNet(9, 4, 100, 150)
	tn.nodes[addr.NodeAt(2)].SetHooks(Hooks{
		DropForward: func(m *wire.Message, _ addr.Node) bool { return m.Type() == wire.MsgTC },
	})
	tn.start()
	tn.run(40 * time.Second)

	for _, link := range tn.nodes[addr.NodeAt(4)].TopologyLinks() {
		if link[0] == addr.NodeAt(1) {
			t.Errorf("node 4 learned a TC originated by node 1: %v", link)
		}
	}
	// The victim's own log shows the anomaly: node 2 never echoed node 1's
	// TC back (no MSG_DROP reason=own from node 2), the paper's E2 signal.
	recs, _ := tn.logs[addr.NodeAt(1)].Since(0)
	for _, r := range recs {
		if r.Kind != auditlog.KindMsgDrop {
			continue
		}
		reason, _ := r.Get("reason")
		from, _ := r.NodeField("from")
		if reason == "own" && from == addr.NodeAt(2) {
			t.Error("node 2 echoed node 1's own message despite dropping hook")
		}
	}
}

func TestModifyHelloSpoofsTwoHopView(t *testing.T) {
	// Node 2 advertises a phantom neighbor (paper Expr. 1): node 1 must
	// record it as a 2-hop neighbor via node 2 and select node 2 as MPR.
	phantom := addr.NodeAt(99)
	tn := lineNet(10, 2, 100, 150)
	tn.nodes[addr.NodeAt(2)].SetHooks(Hooks{
		ModifyHello: func(h *wire.Hello) {
			h.Links = append(h.Links, wire.LinkBlock{
				Code:      wire.MakeLinkCode(wire.NeighSym, wire.LinkSym),
				Neighbors: []addr.Node{phantom},
			})
		},
	})
	tn.start()
	tn.run(15 * time.Second)

	a := tn.nodes[addr.NodeAt(1)]
	if !twoHopSet(a).Has(phantom) {
		t.Fatalf("phantom not in 2-hop set: %v", twoHopSet(a))
	}
	if !a.MPRs().Has(addr.NodeAt(2)) {
		t.Errorf("spoofer not selected as MPR: %v", a.MPRs())
	}
	if !a.AdvertisedSym(nil, addr.NodeAt(2)).Has(phantom) {
		t.Error("AdvertisedSym does not reflect the spoofed HELLO")
	}
}

// MID (type 3) and HNA (type 4) messages are not processed: no interface
// association or gateway table is kept. What remains of these tests is
// that such a message, originated two hops beyond node 1, is relayed by
// the MPRs like any type they do not process (RFC 3626 §3.4) and reaches
// node 1.

func TestMIDAssociation(t *testing.T) {
	assertFloodedUnprocessed(t, 11, &wire.RawBody{Type: 3, Data: []byte{10, 0, 0, 200}})
}

func TestHNAGateway(t *testing.T) {
	assertFloodedUnprocessed(t, 12, &wire.RawBody{Type: 4, Data: []byte{192, 168, 0, 0, 255, 255, 0, 0}})
}

// assertFloodedUnprocessed checks that body, originated by node 4 of the
// chain 1-2-3-4, is relayed by the MPRs 3 and 2 and reaches node 1.
func assertFloodedUnprocessed(t *testing.T, seed int64, body *wire.RawBody) {
	t.Helper()
	tn := lineNet(seed, 4, 100, 150)
	relayed := make(map[addr.Node][]wire.MessageType)
	for _, id := range []addr.Node{addr.NodeAt(2), addr.NodeAt(3)} {
		tn.nodes[id].SetHooks(Hooks{DropForward: func(m *wire.Message, _ addr.Node) bool {
			if m.Originator == addr.NodeAt(4) && m.Type() != wire.MsgTC {
				relayed[id] = append(relayed[id], m.Type())
			}
			return false
		}})
	}
	tn.start()
	tn.run(30 * time.Second)
	src := tn.nodes[addr.NodeAt(4)]
	before := tn.nodes[addr.NodeAt(1)].Stats().MsgRx
	src.broadcast(wire.Message{VTime: 15 * time.Second, Originator: addr.NodeAt(4), TTL: 255, Seq: src.nextMsgSeq(), Body: body})
	tn.run(time.Second)

	for _, id := range []addr.Node{addr.NodeAt(3), addr.NodeAt(2)} {
		if got := relayed[id]; !slices.Equal(got, []wire.MessageType{body.Type}) {
			t.Errorf("node %v relayed %v, want [%v]", id, got, body.Type)
		}
	}
	if tn.nodes[addr.NodeAt(1)].Stats().MsgRx == before {
		t.Error("the flood never reached node 1")
	}
}

func TestRoutingInvariants(t *testing.T) {
	// On a random topology: no route to self, next hops are symmetric
	// neighbors, hop counts are consistent (next hop's route is one
	// shorter, when the destination is more than one hop away).
	sched := sim.New(13)
	pts := mobility.UniformPlacement(sched.Rand(), geo.Arena(350, 350), 12)
	pos := make(map[addr.Node]geo.Point, len(pts))
	for i, p := range pts {
		pos[addr.NodeAt(i+1)] = p
	}
	tn := newTestNet(13, 150, pos)
	tn.start()
	tn.run(45 * time.Second)

	for _, id := range tn.order {
		n := tn.nodes[id]
		sym := n.SymNeighbors(nil)
		for _, r := range n.Routes() {
			if r.Dest == id {
				t.Errorf("node %v has route to itself", id)
			}
			if !sym.Has(r.NextHop) {
				t.Errorf("node %v: route %+v next hop is not a symmetric neighbor", id, r)
			}
			if r.Hops < 1 {
				t.Errorf("node %v: route %+v hop count", id, r)
			}
			if r.Hops == 1 && r.NextHop != r.Dest {
				t.Errorf("node %v: 1-hop route %+v with indirect next hop", id, r)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	dump := func() string {
		tn := lineNet(99, 4, 100, 150)
		tn.start()
		tn.run(30 * time.Second)
		var all strings.Builder
		for _, id := range tn.order {
			for seq := range uint64(tn.logs[id].Len()) {
				l, _ := tn.logs[id].LineAt(seq)
				all.WriteString(l.Text + "\n")
			}
		}
		return all.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Error("two identical seeds produced different audit logs")
	}
}

func TestSeqNewer(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 65535, true},  // wraparound
		{65535, 0, false}, // wraparound
		// A gap larger than half the sequence space means the *smaller*
		// number is fresher (RFC 3626 §19).
		{40000, 1000, false},
		{1000, 40000, true},
	}
	for _, tt := range tests {
		if got := seqNewer(tt.a, tt.b); got != tt.want {
			t.Errorf("seqNewer(%d,%d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestANSNStaleTCDropped(t *testing.T) {
	// Hand-feed TCs to a node with a prepared symmetric link.
	sched := sim.New(14)
	var sent [][]byte
	n := New(Config{Addr: addr.NodeAt(1)}, sched, func(b []byte) { sent = append(sent, b) }, nil)

	// Fake a symmetric link with node 2 by processing a HELLO that lists us.
	hello := &wire.Hello{HTime: 2 * time.Second, Will: wire.WillDefault, Links: []wire.LinkBlock{{
		Code: wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), Neighbors: []addr.Node{addr.NodeAt(1)},
	}}}
	n.processHello(&wire.Message{VTime: time.Minute, Originator: addr.NodeAt(2), Body: hello}, hello)
	if !n.IsSymNeighbor(addr.NodeAt(2)) {
		t.Fatal("link setup failed")
	}

	feedTC := func(seq, ansn uint16, dests ...addr.Node) {
		msg := wire.Message{
			VTime: time.Minute, Originator: addr.NodeAt(3), TTL: 10, Seq: seq,
			Body: &wire.TC{ANSN: ansn, Advertised: dests},
		}
		n.handleMessage(addr.NodeAt(2), &msg)
	}
	feedTC(1, 10, addr.NodeAt(7))
	feedTC(2, 9, addr.NodeAt(8)) // stale ANSN: must be rejected
	links := n.TopologyLinks()
	if len(links) != 1 || links[0][1] != addr.NodeAt(7) {
		t.Fatalf("topology after stale TC = %v", links)
	}
	feedTC(3, 11, addr.NodeAt(8)) // newer ANSN replaces
	links = n.TopologyLinks()
	if len(links) != 1 || links[0][1] != addr.NodeAt(8) {
		t.Fatalf("topology after newer TC = %v", links)
	}
	_ = sent
}

func TestHelloLogsAdvertisedNeighbors(t *testing.T) {
	tn := lineNet(15, 3, 100, 150)
	tn.start()
	tn.run(15 * time.Second)

	// Node 1's log must contain HELLO_RX records from node 2 advertising
	// node 3 (and eventually node 1 itself).
	recs, _ := tn.logs[addr.NodeAt(1)].Since(0)
	sawNode3 := false
	for _, r := range recs {
		if r.Kind != auditlog.KindHelloRx {
			continue
		}
		from, _ := r.NodeField("from")
		if from != addr.NodeAt(2) {
			continue
		}
		syms, err := r.NodesField("sym")
		if err != nil {
			t.Fatalf("bad sym field: %v", err)
		}
		for _, s := range syms {
			if s == addr.NodeAt(3) {
				sawNode3 = true
			}
		}
	}
	if !sawNode3 {
		t.Error("node 2's HELLOs never advertised node 3 in node 1's log")
	}
}

func TestMPRSetChangeLogged(t *testing.T) {
	tn := lineNet(16, 3, 100, 150)
	tn.start()
	tn.run(20 * time.Second)
	recs, _ := tn.logs[addr.NodeAt(1)].Since(0)
	found := false
	for _, r := range recs {
		if r.Kind == auditlog.KindMPRSet {
			mprs, err := r.NodesField("mprs")
			if err != nil {
				t.Fatalf("bad mprs field: %v", err)
			}
			for _, m := range mprs {
				if m == addr.NodeAt(2) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("MPR_SET record naming node 2 never appeared")
	}
}

func TestStopSilencesNode(t *testing.T) {
	tn := lineNet(17, 2, 100, 150)
	tn.start()
	tn.run(5 * time.Second)
	before := tn.nodes[addr.NodeAt(1)].Stats().HelloTx
	tn.nodes[addr.NodeAt(1)].Stop()
	tn.run(10 * time.Second)
	after := tn.nodes[addr.NodeAt(1)].Stats().HelloTx
	if after != before {
		t.Errorf("node kept emitting after Stop: %d -> %d", before, after)
	}
	// Restarting resumes emission.
	tn.nodes[addr.NodeAt(1)].Start()
	tn.run(5 * time.Second)
	if tn.nodes[addr.NodeAt(1)].Stats().HelloTx == after {
		t.Error("node did not resume after Start")
	}
}

func TestBadPacketLogged(t *testing.T) {
	sched := sim.New(18)
	logb := &auditlog.Buffer{}
	n := New(Config{Addr: addr.NodeAt(1)}, sched, func([]byte) {}, logb)
	n.HandlePacket(addr.NodeAt(2), []byte{0xff, 0xff, 0x00})
	recs, _ := logb.Since(0)
	if len(recs) != 1 || recs[0].Kind != auditlog.KindBadPacket {
		t.Fatalf("records = %+v", recs)
	}
}

func TestConfigDefaults(t *testing.T) {
	// The protocol constants are the RFC 3626 §18.2 defaults, and HELLOs
	// advertise the default willingness.
	if helloInterval != 2*time.Second || tcInterval != 5*time.Second {
		t.Errorf("intervals = %v/%v", helloInterval, tcInterval)
	}
	if neighborHold != 6*time.Second || topologyHold != 15*time.Second {
		t.Errorf("holds = %v/%v", neighborHold, topologyHold)
	}
	n := New(Config{Addr: addr.NodeAt(1)}, sim.New(1), func([]byte) {}, nil)
	if h := n.buildHello(); h.Will != wire.WillDefault || h.HTime != helloInterval {
		t.Errorf("hello will = %v htime = %v", h.Will, h.HTime)
	}
}
