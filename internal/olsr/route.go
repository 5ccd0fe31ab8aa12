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
// Working lists live in the node's scratch buffers; only the returned
// route map is freshly allocated (retained as n.routes).
func (n *Node) calculateRoutes() map[addr.Node]Route {
	now := n.now()
	routes := make(map[addr.Node]Route)
	sym := n.SymNeighbors(n.nodeScratch)
	n.nodeScratch = sym
	for _, x := range sym {
		routes[x] = Route{Dest: x, NextHop: x, Hops: 1}
	}

	// Strict 2-hop destinations, preferring MPR relays, then lower address.
	vias := append(n.viaScratch[:0], sym...)
	n.viaScratch = vias
	slices.SortStableFunc(vias, func(a, b addr.Node) int {
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
	for _, via := range vias {
		for b, until := range n.twoHop[via] {
			if until <= now || b == n.cfg.Addr {
				continue
			}
			if _, have := routes[b]; have {
				continue
			}
			routes[b] = Route{Dest: b, NextHop: via, Hops: 2}
		}
	}

	// Extend through the topology set, one hop count at a time. sym
	// is dead past this point, so topoLasts reclaims its buffer; the inner
	// per-entry destination list reclaims the vias buffer the same way.
	topoLasts := n.nodeScratch[:0]
	for last := range n.topo {
		topoLasts = append(topoLasts, last)
	}
	slices.Sort(topoLasts)
	n.nodeScratch = topoLasts

	for h := 2; ; h++ {
		added := false
		for _, last := range topoLasts {
			rl, ok := routes[last]
			if !ok || rl.Hops != h {
				continue
			}
			e := n.topo[last]
			dests := n.viaScratch[:0]
			for d, until := range e.dests {
				if until > now {
					dests = append(dests, d)
				}
			}
			slices.Sort(dests)
			n.viaScratch = dests
			for _, d := range dests {
				if d == n.cfg.Addr {
					continue
				}
				if _, have := routes[d]; have {
					continue
				}
				routes[d] = Route{Dest: d, NextHop: rl.NextHop, Hops: h + 1}
				added = true
			}
		}
		if !added {
			break
		}
	}
	return routes
}
