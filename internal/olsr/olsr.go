// Package olsr implements the core of the Optimized Link State Routing
// protocol (RFC 3626): link sensing and neighbor detection through HELLO
// messages, MPR selection, topology diffusion through TC messages with the
// default forwarding algorithm, and shortest-path routing-table
// calculation. Nodes have one interface and no external networks, so they
// originate no MID or HNA messages; received ones are flooded unprocessed,
// like any type the node does not implement (RFC 3626 §3.4).
//
// Every externally observable action is counted, and recorded when an
// audit-log buffer is attached; the intrusion detection layer consumes
// only those logs, never the protocol state directly (the paper's "no change to the routing protocol"
// property — the read-only accessors exist for tests and for answering
// investigation requests about the node's *own* links).
//
// Attack behaviors are injected through Hooks, mirroring how the paper's
// authors "purposely developed" a link spoofing attack against an
// otherwise-unmodified routing daemon.
package olsr

import (
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterizes one OLSR node.
type Config struct {
	Addr addr.Node // main address, required
}

// Protocol constants: the RFC 3626 §18.2 defaults, which every run uses.
const (
	helloInterval = 2 * time.Second
	tcInterval    = 5 * time.Second
	neighborHold  = 3 * helloInterval
	topologyHold  = 3 * tcInterval
	duplicateHold = 30 * time.Second
	expiryTick    = 500 * time.Millisecond // housekeeping period
	jitter        = 0.25                   // emission jitter fraction
)

// Hooks let a behavior (an attack implementation) manipulate the node's
// control traffic. Nil hooks are ignored.
type Hooks struct {
	// ModifyHello rewrites the HELLO body just before emission — the link
	// spoofing attack surface (paper §III-A). h and its link blocks are
	// node scratch, rebuilt for every HELLO and valid only during the
	// call: the hook may rewrite or append to them, but must not keep h,
	// h.Links or a block's Neighbors.
	ModifyHello func(h *wire.Hello)
	// DropForward, when returning true, silently suppresses the relaying
	// of a message the node should forward as an MPR (black/gray hole).
	DropForward func(m *wire.Message, sender addr.Node) bool
}

// Route is one routing-table entry.
type Route struct {
	Dest    addr.Node
	NextHop addr.Node
	Hops    int
}

// linkTuple is the RFC 3626 §4.2.1 link tuple (single interface).
type linkTuple struct {
	symUntil  time.Duration // L_SYM_time
	asymUntil time.Duration // L_ASYM_time
	until     time.Duration // L_time
	will      wire.Willingness
}

// topoEntry aggregates the topology tuples learned from one TC originator.
// next is a lower bound on the earliest expiry in dests, and at most the
// time of the write that left dests empty, so the sweep skips the entry
// while next > now (DESIGN.md §10.1).
type topoEntry struct {
	ansn  uint16
	next  time.Duration
	dests table[time.Duration] // advertised neighbor -> expiry
}

// Node is one OLSR routing agent.
type Node struct {
	cfg    Config
	sched  *sim.Scheduler
	send   func(payload []byte) // one-hop broadcast
	logb   *auditlog.Buffer     // may be nil
	logged int                  // records logged, attached or not
	hooks  Hooks
	tracer *trace.Tracer // nil = tracing off

	// The protocol tables are address-ordered (table.go), so every walk
	// over them is deterministic. The duplicate set is only ever looked up
	// by key, and is expired in dupQueue order (dupset.go).
	links        table[linkTuple]
	twoHop       table[table[time.Duration]] // via -> node -> expiry
	mprs         addr.Set
	selectors    table[time.Duration]
	topo         table[topoEntry]
	dups         dupSet
	dupQueue     dupQueue        // one expiry entry per duplicate tuple
	lastHelloSym table[addr.Set] // neighbor -> last advertised sym set
	routes       table[Route]    // by destination
	routesDirty  bool            // routes trail the topology; recomputed on read

	// carved is the chunk every fresh topology-destination and 2-hop
	// cover table is carved from (table.go, carve), sized by the message
	// that creates it, so learning a new originator or 2-hop path costs no
	// growth allocations.
	carved []entry[time.Duration]
	// carvedSets is the same for the stored HELLO sets in lastHelloSym.
	carvedSets []addr.Node

	prevSym addr.Set // for NEIGHBOR_UP/DOWN diffs

	// Recomputation schedule (DESIGN.md §10.1). prevSym and mprs are a pure
	// function of the symmetric links and their willingness and the live
	// 2-hop tuples: afterTopologyChange re-derives them only when a write
	// flagged one of those inputs (mprStale) or a live input may have
	// expired (now >= mprValidUntil, a lower bound on the earliest such
	// expiry). nextExpiry is the same kind of lower bound over every tuple
	// the expire sweep drops; the sweep runs only once it has passed.
	mprStale       bool
	mprValidUntil  time.Duration
	mprDerivations uint64 // re-derivations run; lets tests pin the memo
	nextExpiry     time.Duration

	ansn    uint16
	msgSeq  uint16
	pktSeq  uint16
	started bool
	tickers []*sim.Ticker
	encBuf  []byte       // packet encode scratch, reused across emissions
	dec     wire.Decoder // packet decode arena, reused across receptions

	// Recalculation scratch, reused across protocol events so the
	// steady-state receive path allocates nothing. Each is valid only
	// within one call; nothing here is ever retained or returned.
	nodeScratch  []addr.Node     // sorted-render / candidate scratch
	coverage     table[coverage] // strict 2-hop node -> its coverers
	reachCount   table[int]      // every candidate -> |N2 coverage|
	uncovScratch addr.Set
	mprScratch   addr.Set       // selectMPRs result; cloned only on change
	helloCat     [4][]addr.Node // HELLO link-block categories
	hello        wire.Hello     // HELLO body, built over helloCat
	tc           wire.TC        // TC body, advertising the MPR selectors

	// Stats for the overhead experiments.
	helloTx, tcTx, tcFwd, msgRx, msgDrop uint64
}

// New creates an OLSR node. send transmits an encoded packet as a one-hop
// broadcast; logb, when non-nil, receives the audit log. Without one the
// node renders nothing and only counts its records (Records).
//
// The payload slice passed to send is a scratch buffer the node reuses
// for its next emission, valid only during the call: send must copy
// whatever it keeps. The radio medium copies in Send, so internal/core
// prefixes into its own scratch and hands that over.
func New(cfg Config, sched *sim.Scheduler, send func([]byte), logb *auditlog.Buffer) *Node {
	return &Node{
		cfg:   cfg,
		sched: sched,
		send:  send,
		logb:  logb,
	}
}

// SetHooks installs attack hooks. Must be called before Start.
func (n *Node) SetHooks(h Hooks) { n.hooks = h }

// SetTracer installs the run-trace tracer (nil = off). Emissions are
// pure observation of protocol actions the node already took.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer = t }

// Start registers the node's emission and housekeeping timers.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.tickers = append(n.tickers,
		n.sched.Every(0, helloInterval, jitter, n.sendHello),
		n.sched.Every(helloInterval/2, tcInterval, jitter, n.sendTC),
		n.sched.Every(expiryTick, expiryTick, 0, n.expire),
	)
}

// Stop cancels the node's timers.
func (n *Node) Stop() {
	for _, t := range n.tickers {
		t.Stop()
	}
	n.tickers = nil
	n.started = false
}

func (n *Node) now() time.Duration { return n.sched.Now() }

// Records returns how many audit records the node has logged, whether or
// not a buffer is attached: with one, it equals the buffer's Len until
// something else (a forger's Rewrite) changes that.
func (n *Node) Records() int { return n.logged }

func (n *Node) log(kind auditlog.Kind, fields ...auditlog.Field) {
	n.logged++
	if n.logb == nil {
		return
	}
	n.logb.Append(auditlog.Record{T: n.now(), Node: n.cfg.Addr, Kind: kind, Fields: fields})
}

// dropMsg counts a discarded message and logs its MSG_DROP record. With
// no buffer attached it only counts, before building any field: most
// nodes of a large run drop every duplicate copy this way.
func (n *Node) dropMsg(sender addr.Node, m *wire.Message, reason string) {
	n.msgDrop++
	if n.logb == nil {
		n.logged++
		return
	}
	n.log(auditlog.KindMsgDrop,
		auditlog.FNode("from", sender),
		auditlog.FNode("orig", m.Originator),
		auditlog.F("reason", reason))
}

// nextMsgSeq returns the next message sequence number.
func (n *Node) nextMsgSeq() uint16 {
	n.msgSeq++
	return n.msgSeq
}

// broadcast wraps messages into a packet and transmits it. The encode
// buffer is reused across emissions (see the New contract on send).
func (n *Node) broadcast(msgs ...wire.Message) {
	n.pktSeq++
	p := &wire.Packet{Seq: n.pktSeq, Messages: msgs}
	n.encBuf = p.AppendTo(n.encBuf[:0])
	n.send(n.encBuf)
}

// symLink reports whether the link to x is currently symmetric.
func (n *Node) symLink(x addr.Node) bool {
	lt := n.links.get(x)
	return lt != nil && lt.symUntil > n.now()
}

// asymLink reports whether x has been heard but the link is not (yet)
// symmetric.
func (n *Node) asymLink(x addr.Node) bool {
	lt := n.links.get(x)
	return lt != nil && lt.symUntil <= n.now() && lt.asymUntil > n.now()
}

// SymNeighbors returns the current symmetric 1-hop neighborhood, built
// in dst's storage (nil allocates) so hot callers can reuse one buffer.
func (n *Node) SymNeighbors(dst addr.Set) addr.Set {
	dst = slices.Grow(dst[:0], len(n.links))
	now := n.now()
	for _, e := range n.links {
		if e.val.symUntil > now {
			dst = append(dst, e.key)
		}
	}
	return dst
}

// IsSymNeighbor reports whether x is currently a symmetric neighbor. This
// is the primitive a node uses to answer a link-verification request
// about itself during a cooperative investigation.
func (n *Node) IsSymNeighbor(x addr.Node) bool { return n.symLink(x) }

// HearsFrom reports whether this node currently receives x's HELLOs at
// all (symmetric or asymmetric link). It answers the directional question
// behind omission verification (Expression 3): "the suspect claims not to
// hear you — do you still hear the suspect?".
func (n *Node) HearsFrom(x addr.Node) bool { return n.symLink(x) || n.asymLink(x) }

// Covers reports whether the symmetric neighbor via has advertised dest
// as its own symmetric neighbor (the basis of evidences E4/E5: does an
// MPR really cover its adjacent neighbors?).
func (n *Node) Covers(via, dest addr.Node) bool {
	until := n.cover(via).get(dest)
	return until != nil && *until > n.now()
}

// AdvertisedSym returns the symmetric-neighbor set most recently advertised
// by neighbor x in a HELLO, as recorded when the HELLO was processed,
// built in dst's storage (nil allocates).
//
//repro:allocfree
func (n *Node) AdvertisedSym(dst addr.Set, x addr.Node) addr.Set {
	dst = dst[:0]
	if a := n.lastHelloSym.get(x); a != nil {
		dst = append(dst, *a...)
	}
	return dst
}

// MPRs returns the current multipoint relay set.
func (n *Node) MPRs() addr.Set { return n.mprs.Clone() }

// MPRSelectors returns the neighbors that selected this node as an MPR,
// built in dst's storage (nil allocates).
func (n *Node) MPRSelectors(dst addr.Set) addr.Set {
	dst = slices.Grow(dst[:0], len(n.selectors))
	now := n.now()
	for _, e := range n.selectors {
		if e.val > now {
			dst = append(dst, e.key)
		}
	}
	return dst
}

// routeTable returns the routing table, recomputing it if topology
// changed since the last read. The calculation is side-effect-free — no
// logging, no randomness, no scheduled events — so deferring it from
// packet arrival to read time collapses the per-packet O(topology)
// recalculation that dominated large populations into one pass per
// actual lookup. The deferred table can only be *fresher* than the old
// eager snapshot: entries that expired between the last topology change
// and the read are filtered at read time instead of lingering until the
// next expire tick, which is the RFC's intent (never route via expired
// tuples). The golden corpus pins that no recorded scenario's digest
// moved under the new schedule.
func (n *Node) routeTable() table[Route] {
	if n.routesDirty {
		n.calculateRoutes()
		n.routesDirty = false
	}
	return n.routes
}

// Routes returns a copy of the routing table sorted by destination.
func (n *Node) Routes() []Route {
	routes := n.routeTable()
	out := make([]Route, 0, len(routes))
	for _, e := range routes {
		out = append(out, e.val)
	}
	return out
}

// RouteTo returns the route to dst, if any.
func (n *Node) RouteTo(dst addr.Node) (Route, bool) {
	if r := n.routeTable().get(dst); r != nil {
		return *r, true
	}
	return Route{}, false
}

// TopologyLinks returns the learned (lastHop -> dest) topology pairs,
// sorted, for inspection by tests and debug tools.
func (n *Node) TopologyLinks() [][2]addr.Node {
	var out [][2]addr.Node
	for _, e := range n.topo {
		for _, d := range e.val.dests {
			if d.val > n.now() {
				out = append(out, [2]addr.Node{e.key, d.key})
			}
		}
	}
	return out
}

// Stats reports per-node control-plane counters.
type Stats struct {
	HelloTx, TCTx, TCFwd, MsgRx, MsgDrop uint64
}

// Stats returns the node's control-plane counters.
func (n *Node) Stats() Stats {
	return Stats{HelloTx: n.helloTx, TCTx: n.tcTx, TCFwd: n.tcFwd, MsgRx: n.msgRx, MsgDrop: n.msgDrop}
}

// HandlePacket ingests a received OLSR packet. sender is the link-layer
// previous hop (not necessarily the originator of the contained messages).
func (n *Node) HandlePacket(sender addr.Node, data []byte) {
	pkt, err := n.dec.Decode(data)
	if err != nil {
		n.log(auditlog.KindBadPacket, auditlog.FNode("from", sender), auditlog.F("reason", "decode"))
		return
	}
	for i := range pkt.Messages {
		n.handleMessage(sender, &pkt.Messages[i])
	}
}

func (n *Node) handleMessage(sender addr.Node, m *wire.Message) {
	n.msgRx++
	if m.Originator == n.cfg.Addr {
		// Our own message echoed back by a forwarder. The MSG_DROP log with
		// reason=own is load-bearing: it proves the neighbor relayed our
		// traffic, which the drop-attack signature relies on.
		n.dropMsg(sender, m, "own")
		return
	}
	if h, ok := m.Body.(*wire.Hello); ok {
		n.processHello(m, h)
		return
	}

	// Flooded message types: RFC 3626 §3.4.1 step 1 — a copy received from
	// a non-symmetric neighbor is discarded entirely, before the duplicate
	// set is consulted, so a later copy from a symmetric neighbor is still
	// processed.
	if !n.symLink(sender) {
		n.dropMsg(sender, m, "nonsym")
		return
	}

	key := newDupKey(m.Originator, m.Seq)
	d, created := n.dups.ref(key)
	d.until = n.now() + duplicateHold
	if created {
		n.dupQueue.push(dupExpiry{at: d.until, key: key})
	}

	if d.processed {
		n.dropMsg(sender, m, "dup")
	} else {
		d.processed = true
		// Other types are forwarded but not processed (RFC 3626 §3.4).
		if tc, ok := m.Body.(*wire.TC); ok {
			n.processTC(sender, m, tc)
		}
	}
	if !d.retransmitted {
		d.retransmitted = n.maybeForward(sender, m)
	}
}

// maybeForward applies the RFC 3626 §3.4.1 default forwarding algorithm
// to a message not yet retransmitted: retransmit iff the link-layer
// sender is a symmetric neighbor that selected this node as an MPR and
// the TTL allows another hop. It reports whether it retransmitted.
func (n *Node) maybeForward(sender addr.Node, m *wire.Message) bool {
	if m.TTL <= 1 {
		return false
	}
	if until := n.selectors.get(sender); until == nil || *until <= n.now() {
		return false
	}
	if n.hooks.DropForward != nil && n.hooks.DropForward(m, sender) {
		// Dropped silently: a misbehaving relay does not log its own
		// misdeed. Detection must come from other nodes' logs.
		return false
	}
	fwd := *m
	fwd.TTL--
	fwd.HopCount++
	n.tcFwd++
	if m.Type() == wire.MsgTC {
		n.log(auditlog.KindTCFwd,
			auditlog.FNode("orig", m.Originator),
			auditlog.FNode("sender", sender))
	}
	n.broadcast(fwd)
	return true
}
