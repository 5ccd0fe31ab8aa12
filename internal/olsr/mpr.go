package olsr

import (
	"slices"
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
		lt := n.links[x]
		validUntil = min(validUntil, lt.symUntil)
		if lt.will != wire.WillNever {
			candidates = append(candidates, x)
		}
	}
	n.nodeScratch = candidates

	// N2: strict 2-hop neighbors, with per-node coverage counts. Only the
	// count and (for count==1) the identity of the sole coverer are needed
	// downstream, so no per-node coverer lists are built.
	clear(n.coverCount)
	clear(n.soleCover)
	clear(n.reachCount)
	for _, via := range candidates {
		for b, until := range n.twoHop[via] {
			if until <= now {
				continue
			}
			validUntil = min(validUntil, until)
			if b == n.cfg.Addr || sym.Has(b) {
				continue
			}
			n.coverCount[b]++
			n.soleCover[b] = via
			n.reachCount[via]++
		}
	}

	mprs = n.mprScratch[:0]
	uncovered := n.uncovScratch[:0]
	for b := range n.coverCount {
		uncovered = append(uncovered, b)
	}
	slices.Sort(uncovered)

	markCovered := func(m addr.Node) {
		for b, until := range n.twoHop[m] {
			if until > now {
				uncovered.Remove(b)
			}
		}
	}

	// Step 1: WILL_ALWAYS neighbors are always MPRs.
	for _, x := range candidates {
		if n.links[x].will == wire.WillAlways {
			mprs.Add(x)
			markCovered(x)
		}
	}
	// Step 2: neighbors that are the sole cover of some 2-hop node. The
	// iteration order is a snapshot taken after step 1, exactly as the
	// original map-backed pass did.
	n.viaScratch = append(n.viaScratch[:0], uncovered...)
	for _, b := range n.viaScratch {
		if n.coverCount[b] == 1 && !mprs.Has(n.soleCover[b]) {
			mprs.Add(n.soleCover[b])
			markCovered(n.soleCover[b])
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
			for b, until := range n.twoHop[x] {
				if until > now && uncovered.Has(b) {
					count++
				}
			}
			if count == 0 {
				continue
			}
			if best == addr.None || betterMPR(n, x, count, best, bestCount, n.reachCount) {
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

// betterMPR reports whether candidate x (covering count uncovered nodes)
// beats the current best per the RFC tie-break order.
func betterMPR(n *Node, x addr.Node, count int, best addr.Node, bestCount int, reach map[addr.Node]int) bool {
	if count != bestCount {
		return count > bestCount
	}
	wx, wb := n.links[x].will, n.links[best].will
	if wx != wb {
		return wx > wb
	}
	if reach[x] != reach[best] {
		return reach[x] > reach[best]
	}
	return x < best
}
