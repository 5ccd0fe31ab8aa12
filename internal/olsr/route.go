package olsr

import (
	"slices"

	"repro/internal/addr"
)

// calculateRoutes implements the RFC 3626 §10 routing-table calculation:
// symmetric neighbors at one hop, strict 2-hop neighbors through a
// covering neighbor, then iterative extension through the TC-learned
// topology set. Iteration order is sorted throughout so route selection is
// deterministic under ties.
//
// It rebuilds n.routes in place; working lists live in the node's scratch
// buffers.
func (n *Node) calculateRoutes() {
	now := n.now()
	routes := n.routes[:0]
	sym := n.SymNeighbors(n.nodeScratch)
	n.nodeScratch = sym
	for _, x := range sym {
		*routes.put(x) = Route{Dest: x, NextHop: x, Hops: 1}
	}

	// Strict 2-hop destinations, preferring MPR relays, then lower address.
	// sym is scratch, so it is reordered in place.
	slices.SortStableFunc(sym, func(a, b addr.Node) int {
		ma, mb := n.mprs.Has(a), n.mprs.Has(b)
		switch {
		case ma != mb && ma:
			return -1
		case ma != mb:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	})
	// put inserts a destination with Hops 0, so Hops 0 marks a new one.
	for _, via := range sym {
		for _, e := range n.cover(via) {
			if e.val <= now || e.key == n.cfg.Addr {
				continue
			}
			if r := routes.put(e.key); r.Hops == 0 {
				*r = Route{Dest: e.key, NextHop: via, Hops: 2}
			}
		}
	}

	// Extend through the topology set, one hop count at a time.
	for h := 2; ; h++ {
		added := false
		for _, e := range n.topo {
			rl := routes.get(e.key)
			if rl == nil || rl.Hops != h {
				continue
			}
			next := rl.NextHop // the puts below may move rl's entry
			for _, d := range e.val.dests {
				if d.val <= now || d.key == n.cfg.Addr {
					continue
				}
				if r := routes.put(d.key); r.Hops == 0 {
					*r = Route{Dest: d.key, NextHop: next, Hops: h + 1}
					added = true
				}
			}
		}
		if !added {
			break
		}
	}
	n.routes = routes
}
