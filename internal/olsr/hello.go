package olsr

import (
	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/trace"
	"repro/internal/wire"
)

// buildHello assembles the HELLO body from the current link set: MPR
// neighbors, other symmetric neighbors, and heard-but-asymmetric links
// (which drive the RFC's implicit 3-way handshake to symmetry). The body
// and its link blocks are node scratch, valid until the next call.
func (n *Node) buildHello() *wire.Hello {
	now := n.now()
	// Categorize into the reusable per-category buffers. The link set is
	// walked in address order, so each category comes out a set.
	cat := &n.helloCat
	for i := range cat {
		cat[i] = cat[i][:0]
	}
	for _, e := range n.links {
		x, lt := e.key, e.val
		switch {
		case lt.symUntil > now && n.mprs.Has(x):
			cat[0] = append(cat[0], x)
		case lt.symUntil > now:
			cat[1] = append(cat[1], x)
		case lt.asymUntil > now:
			cat[2] = append(cat[2], x)
		case lt.until > now:
			cat[3] = append(cat[3], x)
		}
	}
	h := &n.hello
	*h = wire.Hello{HTime: helloInterval, Will: wire.WillDefault, Links: h.Links[:0]}
	add := func(code wire.LinkCode, nodes []addr.Node) {
		if len(nodes) == 0 {
			return
		}
		h.Links = append(h.Links, wire.LinkBlock{Code: code, Neighbors: nodes})
	}
	add(wire.MakeLinkCode(wire.NeighMPR, wire.LinkSym), cat[0])
	add(wire.MakeLinkCode(wire.NeighSym, wire.LinkSym), cat[1])
	add(wire.MakeLinkCode(wire.NeighNot, wire.LinkAsym), cat[2])
	add(wire.MakeLinkCode(wire.NeighNot, wire.LinkLost), cat[3])
	return h
}

// sendHello emits one HELLO, applying the ModifyHello hook (the link
// spoofing injection point) first.
func (n *Node) sendHello() {
	h := n.buildHello()
	if n.hooks.ModifyHello != nil {
		n.hooks.ModifyHello(h)
	}
	n.helloTx++
	syms := h.SymNeighbors(n.nodeScratch)
	n.nodeScratch = syms
	n.log(auditlog.KindHelloTx,
		auditlog.FNodes("sym", syms),
		auditlog.FInt("will", int(h.Will)))
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Plane: trace.PlaneOLSR, Kind: trace.KindHelloTx,
			Node: n.cfg.Addr.String(), V0: float64(len(syms))})
	}
	n.broadcast(wire.Message{
		VTime:      neighborHold,
		Originator: n.cfg.Addr,
		TTL:        1,
		Seq:        n.nextMsgSeq(),
		Body:       h,
	})
}

// processHello implements RFC 3626 §7.1/§8.1/§8.2: link sensing, neighbor
// and 2-hop set population, and MPR-selector tracking.
func (n *Node) processHello(m *wire.Message, h *wire.Hello) {
	from := m.Originator
	now := n.now()
	vuntil := now + m.VTime

	n.noteExpiry(vuntil) // the link, 2-hop and selector tuples all get vuntil

	lt := n.links.put(from)
	wasSym := lt.symUntil > now
	lt.asymUntil = vuntil
	if lt.will != h.Will {
		n.mprStale = true
	}
	lt.will = h.Will

	// Did the sender hear us? Scan every link block for our own address.
	heard, lost := false, false
	for _, lb := range h.Links {
		_, linkType := lb.Code.Split()
		for _, x := range lb.Neighbors {
			if x != n.cfg.Addr {
				continue
			}
			if linkType == wire.LinkLost {
				lost = true
			} else {
				heard = true
			}
		}
	}
	switch {
	case heard:
		lt.symUntil = vuntil
	case lost:
		lt.symUntil = 0
	}
	if lt.until < lt.asymUntil {
		lt.until = lt.asymUntil
	}
	if lt.until < lt.symUntil {
		lt.until = lt.symUntil
	}
	// A flip of the symmetric predicate changes the MPR inputs; a refresh
	// only moves an expiry, and a shorter VTime can move it earlier.
	if isSym := lt.symUntil > now; isSym != wasSym {
		n.mprStale = true
	} else if isSym {
		n.mprValidUntil = min(n.mprValidUntil, lt.symUntil)
	}

	// A neighbor re-advertises the same set in most HELLOs. Read it into
	// scratch and copy it into the stored set only when it changed, so the
	// scratch keeps its capacity. A stored set without room for the new
	// one is carved afresh from the node's set chunk, so first sight of a
	// neighbor costs no allocation of its own. AdvertisedSym copies the
	// set into its caller's storage, so the reuse is unobservable.
	adv := n.lastHelloSym.put(from)
	sym := h.SymNeighbors(n.nodeScratch)
	n.nodeScratch = sym
	if !sym.Equal(*adv) {
		if cap(*adv) < len(sym) {
			*adv = carve(&n.carvedSets, len(sym))
		}
		*adv = append((*adv)[:0], sym...)
	}

	// 2-hop set: only populated through symmetric neighbors. A fresh
	// cover table is carved with room for every advertised symmetric
	// neighbor.
	if lt.symUntil > now {
		cover := n.twoHop.put(from)
		if cap(*cover) == 0 {
			k := 0
			for _, lb := range h.Links {
				if nt, _ := lb.Code.Split(); nt == wire.NeighSym || nt == wire.NeighMPR {
					k += len(lb.Neighbors)
				}
			}
			*cover = carve(&n.carved, k)
		}
		for _, lb := range h.Links {
			nt, _ := lb.Code.Split()
			for _, b := range lb.Neighbors {
				if b == n.cfg.Addr {
					continue
				}
				switch nt {
				case wire.NeighSym, wire.NeighMPR:
					until := cover.put(b)
					if *until <= now {
						n.log(auditlog.KindTwoHopUp,
							auditlog.FNode("via", from), auditlog.FNode("twohop", b))
						n.mprStale = true
					}
					*until = vuntil
					n.mprValidUntil = min(n.mprValidUntil, vuntil)
				case wire.NeighNot:
					if until := cover.get(b); until != nil && *until > now {
						n.log(auditlog.KindTwoHopDown,
							auditlog.FNode("via", from), auditlog.FNode("twohop", b))
						n.mprStale = true
					}
					cover.delete(b)
				}
			}
		}
	}

	// MPR selector set: the sender listed us with neighbor type MPR.
	selectedUs := false
	for _, lb := range h.Links {
		nt, _ := lb.Code.Split()
		if nt != wire.NeighMPR {
			continue
		}
		for _, x := range lb.Neighbors {
			if x == n.cfg.Addr {
				selectedUs = true
			}
		}
	}
	wasSelector := n.selectors.get(from) != nil
	if selectedUs {
		*n.selectors.put(from) = vuntil
		if !wasSelector {
			n.ansn++
			n.log(auditlog.KindMPRSelector,
				auditlog.FNodes("selectors", n.MPRSelectors(n.nodeScratch)))
		}
	} else if wasSelector {
		n.selectors.delete(from)
		n.ansn++
		n.log(auditlog.KindMPRSelector,
			auditlog.FNodes("selectors", n.MPRSelectors(n.nodeScratch)))
	}

	n.log(auditlog.KindHelloRx,
		auditlog.FNode("from", from),
		auditlog.FNodes("sym", *adv),
		auditlog.FInt("will", int(h.Will)))
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Plane: trace.PlaneOLSR, Kind: trace.KindHelloRx,
			Node: n.cfg.Addr.String(), Peer: from.String(), V0: float64(len(*adv))})
	}

	n.afterTopologyChange()
}
