package olsr

import (
	"time"

	"repro/internal/addr"
	"repro/internal/wire"
)

// selectMPRs implements the RFC 3626 §8.3.1 heuristic: cover every strict
// 2-hop neighbor with the smallest greedy set of willing symmetric
// neighbors. Ties break deterministically (willingness, then reachability,
// then degree, then lowest address) so identical inputs always produce the
// same MPR set — a requirement for reproducible experiments.
//
// sym is the current symmetric neighborhood. All working state —
// including the returned MPR set — lives in the node's recalculation
// scratch; the caller clones the result if it needs to retain it.
//
// validUntil is the earliest expiry among the time-limited inputs the
// heuristic read: the symmetric links and the live 2-hop tuples of the
// candidates. Until then, and absent a write to an input, the result
// cannot change.
func (n *Node) selectMPRs(sym addr.Set) (mprs addr.Set, validUntil time.Duration) {
	now := n.now()
	validUntil = never

	// N: willing symmetric neighbors; candidates for MPR, in address order.
	candidates := n.nodeScratch[:0]
	for _, x := range sym {
		lt := n.links.get(x)
		validUntil = min(validUntil, lt.symUntil)
		if lt.will != wire.WillNever {
			candidates = append(candidates, x)
		}
	}
	n.nodeScratch = candidates

	// N2: strict 2-hop neighbors, with per-node coverage. Only the count
	// and (for count==1) the identity of the sole coverer are needed
	// downstream, so no per-node coverer lists are built.
	n.coverage = n.coverage[:0]
	n.reachCount = n.reachCount[:0]
	for _, via := range candidates {
		reach := n.reachCount.put(via)
		for _, e := range n.cover(via) {
			if e.val <= now {
				continue
			}
			validUntil = min(validUntil, e.val)
			if b := e.key; b != n.cfg.Addr && !sym.Has(b) {
				c := n.coverage.put(b)
				c.count++
				c.sole = via
				*reach++
			}
		}
	}

	mprs = n.mprScratch[:0]
	uncovered := n.uncovScratch[:0]
	for _, e := range n.coverage {
		uncovered = append(uncovered, e.key)
	}

	markCovered := func(m addr.Node) {
		for _, e := range n.cover(m) {
			if e.val > now {
				uncovered.Remove(e.key)
			}
		}
	}

	// Step 1: WILL_ALWAYS neighbors are always MPRs.
	for _, x := range candidates {
		if n.links.get(x).will == wire.WillAlways {
			mprs.Add(x)
			markCovered(x)
		}
	}
	// Step 2: neighbors that are the sole cover of some 2-hop node. A node
	// step 1 covered has its sole coverer in mprs already.
	for _, e := range n.coverage {
		if c := e.val; c.count == 1 && !mprs.Has(c.sole) {
			mprs.Add(c.sole)
			markCovered(c.sole)
		}
	}
	// Step 3: greedy max-coverage until all of N2 is covered.
	for len(uncovered) > 0 {
		best := addr.None
		bestCount := -1
		for _, x := range candidates {
			if mprs.Has(x) {
				continue
			}
			count := 0
			for _, e := range n.cover(x) {
				if e.val > now && uncovered.Has(e.key) {
					count++
				}
			}
			if count == 0 {
				continue
			}
			if best == addr.None || n.betterMPR(x, count, best, bestCount) {
				best, bestCount = x, count
			}
		}
		if best == addr.None {
			break // remaining 2-hop nodes are unreachable via willing neighbors
		}
		mprs.Add(best)
		markCovered(best)
	}
	n.mprScratch, n.uncovScratch = mprs, uncovered
	return mprs, validUntil
}

// coverage is what selectMPRs needs to know of one strict 2-hop node:
// how many candidates cover it, and the last of them in address order,
// which is the only one when count is 1.
type coverage struct {
	count int
	sole  addr.Node
}

// cover returns the 2-hop tuples learned through via (nil if none).
func (n *Node) cover(via addr.Node) table[time.Duration] {
	if c := n.twoHop.get(via); c != nil {
		return *c
	}
	return nil
}

// betterMPR reports whether candidate x (covering count uncovered nodes)
// beats the current best per the RFC tie-break order.
func (n *Node) betterMPR(x addr.Node, count int, best addr.Node, bestCount int) bool {
	if count != bestCount {
		return count > bestCount
	}
	wx, wb := n.links.get(x).will, n.links.get(best).will
	if wx != wb {
		return wx > wb
	}
	if rx, rb := *n.reachCount.get(x), *n.reachCount.get(best); rx != rb {
		return rx > rb
	}
	return x < best
}
