package olsr

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/wire"
)

// bfsDistances computes hop distances from src on an undirected
// connectivity graph — the reference the OLSR routing table must match
// after convergence on a static network.
func bfsDistances(adj map[addr.Node]addr.Set, src addr.Node) map[addr.Node]int {
	dist := map[addr.Node]int{src: 0}
	queue := []addr.Node{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// TestRoutesMatchBFSReference: on random connected static topologies,
// every converged OLSR route must have the BFS-optimal hop count, and
// every BFS-reachable destination must have a route.
func TestRoutesMatchBFSReference(t *testing.T) {
	const rangeM = 160.0
	for _, seed := range []int64{31, 32, 33} {
		sched := sim.New(seed)
		pts := mobility.UniformPlacement(sched.Rand(), geo.Arena(420, 420), 14)
		pos := make(map[addr.Node]geo.Point, len(pts))
		for i, p := range pts {
			pos[addr.NodeAt(i+1)] = p
		}
		tn := newTestNet(seed, rangeM, pos)
		tn.start()
		tn.run(60 * time.Second)

		// Ground-truth connectivity graph.
		adj := make(map[addr.Node]addr.Set, len(pos))
		for a, pa := range pos {
			var nbs addr.Set
			for b, pb := range pos {
				if a != b && pa.Dist(pb) <= rangeM {
					nbs.Add(b)
				}
			}
			adj[a] = nbs
		}

		for _, src := range tn.order {
			want := bfsDistances(adj, src)
			n := tn.nodes[src]
			for _, dst := range tn.order {
				if dst == src {
					continue
				}
				wantHops, reachable := want[dst]
				r, have := n.RouteTo(dst)
				if !reachable {
					if have {
						t.Errorf("seed %d: %v has route to unreachable %v", seed, src, dst)
					}
					continue
				}
				if !have {
					t.Errorf("seed %d: %v missing route to reachable %v (%d hops)", seed, src, dst, wantHops)
					continue
				}
				if r.Hops != wantHops {
					t.Errorf("seed %d: route %v->%v = %d hops, BFS = %d", seed, src, dst, r.Hops, wantHops)
				}
			}
		}
	}
}

func TestThreeWayHandshakeSequence(t *testing.T) {
	// The link must pass through ASYM before becoming SYM, per RFC 3626
	// link sensing. Drive two nodes by hand, one HELLO at a time.
	sched := sim.New(41)
	var aOut, bOut [][]byte
	a := New(Config{Addr: addr.NodeAt(1)}, sched, func(p []byte) { aOut = append(aOut, p) }, nil)
	b := New(Config{Addr: addr.NodeAt(2)}, sched, func(p []byte) { bOut = append(bOut, p) }, nil)

	// Step 1: A emits a HELLO into the void; B hears it. B must now see
	// an asymmetric (heard) link, not a symmetric one.
	a.sendHello()
	b.HandlePacket(addr.NodeAt(1), aOut[len(aOut)-1])
	if b.IsSymNeighbor(addr.NodeAt(1)) {
		t.Fatal("link symmetric after one hello")
	}
	if !b.HearsFrom(addr.NodeAt(1)) {
		t.Fatal("B does not even hear A")
	}

	// Step 2: B's HELLO lists A as heard (asym); A processes it and the
	// link becomes symmetric on A's side.
	b.sendHello()
	a.HandlePacket(addr.NodeAt(2), bOut[len(bOut)-1])
	if !a.IsSymNeighbor(addr.NodeAt(2)) {
		t.Fatal("A's link not symmetric after hearing itself listed")
	}
	if b.IsSymNeighbor(addr.NodeAt(1)) {
		t.Fatal("B symmetric too early")
	}

	// Step 3: A's next HELLO lists B as symmetric; B completes.
	a.sendHello()
	b.HandlePacket(addr.NodeAt(1), aOut[len(aOut)-1])
	if !b.IsSymNeighbor(addr.NodeAt(1)) {
		t.Fatal("B's link not symmetric after the third hello")
	}
}

func TestBuildHelloBlockStructure(t *testing.T) {
	tn := lineNet(42, 3, 100, 150)
	tn.start()
	tn.run(20 * time.Second)

	// The middle node has one MPR-less symmetric neighbor set; node 1
	// selects node 2 as MPR and must advertise it under the MPR/SYM code.
	h := tn.nodes[addr.NodeAt(1)].buildHello()
	var sawMPRBlock bool
	for _, lb := range h.Links {
		nt, lt := lb.Code.Split()
		for _, nb := range lb.Neighbors {
			if nb == addr.NodeAt(2) {
				if nt != wire.NeighMPR || lt != wire.LinkSym {
					t.Errorf("MPR advertised under %v", lb.Code)
				}
				sawMPRBlock = true
			}
		}
	}
	if !sawMPRBlock {
		t.Fatal("MPR neighbor missing from HELLO")
	}
	// No duplicate addresses across blocks.
	var seen addr.Set
	for _, lb := range h.Links {
		for _, nb := range lb.Neighbors {
			if seen.Has(nb) {
				t.Errorf("neighbor %v appears twice in HELLO", nb)
			}
			seen.Add(nb)
		}
	}
}

func TestWillingnessTieBreakPrefersHigherWill(t *testing.T) {
	// Nodes 2 and 3 both cover node 4; node 3 has higher willingness and
	// must win the MPR tie-break.
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(4): geo.Pt(200, 0),
	}
	tn := newTestNet(44, 150, pos)
	tn.addNode(addr.NodeAt(2), geo.Pt(100, 40), Config{Addr: addr.NodeAt(2)}).SetHooks(advertiseWill(wire.WillLow))
	tn.addNode(addr.NodeAt(3), geo.Pt(100, -40), Config{Addr: addr.NodeAt(3)}).SetHooks(advertiseWill(wire.WillHigh))
	tn.start()
	tn.run(25 * time.Second)

	mprs := tn.nodes[addr.NodeAt(1)].MPRs()
	if !mprs.Has(addr.NodeAt(3)) || mprs.Has(addr.NodeAt(2)) {
		t.Errorf("MPR tie-break ignored willingness: %v", mprs)
	}
}

func TestLossyLinksEventuallyConverge(t *testing.T) {
	// 15% loss on every frame: convergence is slower but must happen.
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(2): geo.Pt(100, 0),
		addr.NodeAt(3): geo.Pt(200, 0),
	}
	net := newLossyTestNet(47, 150, 0.15, pos)
	net.start()
	net.run(60 * time.Second)
	a := net.nodes[addr.NodeAt(1)]
	if !a.IsSymNeighbor(addr.NodeAt(2)) {
		t.Error("lossy link never became symmetric")
	}
	if _, ok := a.RouteTo(addr.NodeAt(3)); !ok {
		t.Error("no 2-hop route under loss")
	}
}
