// Package core assembles the full system: OLSR routers over the simulated
// wireless medium, per-node audit logs, intrusion detectors, investigation
// responders, and the control plane that carries verification requests and
// replies across multiple hops while routing around suspects (§III-C).
//
// This is the packet-level counterpart of the paper's testbed: everything
// the round-based experiments of §V abstract away — HELLO/TC traffic, MPR
// churn, message loss, multi-hop forwarding of investigation traffic — is
// concrete here.
package core

import (
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/auditlog"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/olsr"
	"repro/internal/radio"
	"repro/internal/reputation"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trust"
	"repro/internal/wire"
)

// Frame payload discriminators: the first byte of every radio payload
// says whether it carries an OLSR packet or a control-plane message.
// Exported so attack choreography outside the package (forged-TC storms,
// replay of captured frames) can frame raw packets the same way.
const (
	PayloadOLSR byte = 1
	PayloadCtrl byte = 2
	// PayloadRecommend frames the reputation plane's trust-vector gossip:
	// a wire.Packet whose messages carry wire.Recommend bodies, flooded
	// network-wide with per-origin sequence dedup (reputation.go).
	PayloadRecommend byte = 3
)

// ReputationConfig parameterizes the opt-in reputation plane
// (DESIGN.md §9). Disabled, the network behaves exactly as before: no
// ledgers are built, no vectors are gossiped, and detectors weigh
// strangers from the cold default.
type ReputationConfig struct {
	Enabled bool
	// NoFilter disables the deviation test — the X9 ablation arm.
	NoFilter bool
}

// ctrlTTL bounds control-plane forwarding, in hops. The control plane
// (verification traffic, tree-head and recommendation gossip) speaks the
// binary envelope of ctrlwire.go.
const ctrlTTL = 16

// Gossip periods of the opt-in planes: how often each node floods its
// evidence-log tree head, and its trust vector.
const (
	headGossipInterval      = 5 * time.Second
	recommendGossipInterval = 10 * time.Second
)

// Config parameterizes a Network.
type Config struct {
	Seed int64
	// Radio is the medium configuration (zero value: 250m unit disk).
	Radio radio.Config
	// Evidence enables the tamper-evident evidence plane (DESIGN.md §8):
	// sealed audit logs, tree-head gossip and proof-carrying replies.
	// Off, logs are not sealed, no tree heads are gossiped, no citations
	// ride on replies, and no proofs are verified.
	Evidence bool
	// Reputation enables recommendation gossip and Eq. 6/7 trust
	// propagation.
	Reputation ReputationConfig
	// Trace, when non-nil, receives the run's trace events (DESIGN.md
	// §13): scheduler dispatches, frame send/recv, HELLO/TC processing,
	// trust updates, detect verdicts, reputation ingests and audit-log
	// seals. Tracing is pure observation — a traced run is byte-identical
	// to an untraced one in every digest — and nil (the default) costs
	// one branch per potential event.
	Trace trace.Sink
}

// Network is a complete simulated MANET.
type Network struct {
	Sched  *sim.Scheduler
	Medium *radio.Medium

	cfg   Config
	nodes map[addr.Node]*Node
	order []addr.Node

	// index is the run-wide dense node index: every detector's trust
	// store, reputation ledger and suspect-state slab shares it, so a
	// node occupies the same slot everywhere and slabs stay compact.
	index *addr.Index

	// tracer is the run-trace emitter, nil when Config.Trace is nil.
	// One tracer serves the whole network: the sim kernel is
	// single-threaded, so the ordinal is a total order over the run.
	tracer *trace.Tracer

	// ctrlScratch is the decode target of every control envelope
	// (ctrlwire.go). headMemo, nil unless Config.Evidence, is the memo of
	// the tree-head flood's consistency checks (ctrl.go).
	ctrlScratch ctrlScratch
	headMemo    *consistencyMemo

	ctrlSent, ctrlDelivered, ctrlDropped uint64
}

// NewNetwork creates an empty network.
func NewNetwork(cfg Config) *Network {
	sched := sim.New(cfg.Seed)
	w := &Network{
		Sched:  sched,
		Medium: radio.NewMedium(sched, cfg.Radio),
		cfg:    cfg,
		nodes:  make(map[addr.Node]*Node),
		index:  addr.NewIndex(64),
		tracer: trace.New(cfg.Trace, sched.Now),
	}
	if cfg.Evidence {
		w.headMemo = new(consistencyMemo)
	}
	sched.SetTracer(w.tracer)
	return w
}

// Tracer returns the network's run-trace tracer (nil when tracing is
// off) so attack choreography and custom scenario hooks can emit into
// the same ordinal stream.
func (w *Network) Tracer() *trace.Tracer { return w.tracer }

// TraceEvents returns how many trace events the run emitted (0 with
// tracing off).
func (w *Network) TraceEvents() uint64 { return w.tracer.Count() }

// Send hands a frame that node from originates to the medium, emitting
// the net/send trace event first. Every node-originated frame goes
// through here — OLSR emissions, control messages, tree-head and
// recommendation gossip, and attack choreography that transmits as a
// node (forged storms, replays) — so the trace counts each one. payload
// starts with its discriminator byte.
func (w *Network) Send(from, to addr.Node, payload []byte) {
	if w.tracer.On() {
		w.tracer.Emit(trace.Event{Plane: trace.PlaneNet, Kind: trace.KindSend,
			Node: from.String(), Msg: payloadName(payload)})
	}
	w.Medium.Send(from, to, payload)
}

// payloadName is the trace name of a frame's wire type, read from its
// discriminator byte ("" for an empty or unknown payload).
func payloadName(payload []byte) string {
	if len(payload) == 0 {
		return ""
	}
	switch payload[0] {
	case PayloadOLSR:
		return "olsr"
	case PayloadCtrl:
		return "ctrl"
	case PayloadRecommend:
		return "recommend"
	}
	return ""
}

// NodeSpec describes one node to add.
type NodeSpec struct {
	ID addr.Node
	// Pos is the node's mobility model (default: static at the origin).
	Pos mobility.Model
	// Detector enables an intrusion detector with this configuration
	// (Self is set from ID). Nil disables detection on the node.
	Detector *detect.Config
	// Spoofer, when set, installs a link-spoofing behavior.
	Spoofer *attack.LinkSpoofer
	// Hooks installs raw OLSR hooks (black/gray hole); ignored when
	// Spoofer is set.
	Hooks *olsr.Hooks
	// Liar, when set, makes the node answer investigations falsely.
	Liar *attack.Liar
	// DropControl makes the node silently discard control-plane messages
	// it would otherwise relay (a suspect dropping investigation traffic —
	// the reason Algorithm 1 routes around it).
	DropControl bool
	// Forger, when set, installs a log-forging responder: it lies like a
	// Liar and rewrites its own audit log to alibi the protected
	// suspects. Takes precedence over Liar.
	Forger *attack.LogForger
	// Recommender, when set, makes the node gossip forged trust vectors
	// instead of its honest ledger (badmouthing / ballot stuffing; only
	// meaningful with Config.Reputation.Enabled).
	Recommender *attack.Recommender
	// TrustParams overrides the trust constants for this node's detector.
	TrustParams *trust.Params
}

// Node is one device: router, log, detector, responder.
type Node struct {
	ID        addr.Node
	Router    *olsr.Node
	Logs      *auditlog.Buffer // nil when nothing reads the log
	Detector  *detect.Detector // nil if not detecting
	Responder *detect.Responder
	Trust     *trust.Store // nil if not detecting

	net         *Network
	pos         mobility.Model
	dropControl bool

	// Evidence-plane state (nil / unused unless Config.Evidence):
	// the latest gossip-verified tree head per origin, the origins whose
	// gossip exposed a rewrite, and the size of this node's own last
	// broadcast (the anchor of the next gossip's consistency proof).
	heads         map[addr.Node]auditlog.TreeHead
	gossipTainted addr.Set
	prevGossip    uint64

	// Reputation-plane state (nil / unused unless
	// Config.Reputation.Enabled): the ledger (detector nodes only), the
	// forged-vector hook, the newest gossip sequence seen per origin,
	// and this node's own emission sequence.
	Rep         *reputation.Ledger
	Recommender *attack.Recommender
	recSeen     map[addr.Node]uint16
	recSeq      uint16
	recDec      wire.Decoder       // recommend-packet decode arena
	entScratch  []reputation.Entry // reused by ingest and gossip ticks
	nbScratch   []addr.Node        // reused by forwardCtrl's neighbor scan
	txBuf       []byte             // reused encode scratch of every frame sent
	out         *ctrlOut           // every control envelope this node originates; see origin
}

// AddNode instantiates and wires a node; call before Start.
func (w *Network) AddNode(spec NodeSpec) *Node {
	id := spec.ID
	// A log is kept only where something reads it: the node's own
	// detector, the evidence plane (peers cite the log and gossip its
	// heads) or a forger rewriting it. Elsewhere the router only counts
	// its records (DESIGN.md §8.4).
	var logs *auditlog.Buffer
	if spec.Detector != nil || spec.Forger != nil || w.cfg.Evidence {
		logs = &auditlog.Buffer{}
	}
	if w.cfg.Evidence {
		// Sealing keeps the log's Merkle tree, whose heads the evidence
		// plane gossips and whose proofs back citations.
		logs.SetSealKey(nil)
	}

	n := &Node{
		ID:          id,
		Logs:        logs,
		net:         w,
		pos:         spec.Pos,
		dropControl: spec.DropControl,
	}
	if n.pos == nil {
		n.pos = mobility.Static{}
	}
	router := olsr.New(olsr.Config{Addr: id}, w.Sched, n.broadcastOLSR, logs)
	router.SetTracer(w.tracer)
	n.Router = router
	if w.cfg.Evidence && w.tracer.On() {
		logs.SetOnSeal(func(seq uint64) {
			w.tracer.Emit(trace.Event{Plane: trace.PlaneEvidence, Kind: trace.KindSeal,
				Node: id.String(), V0: float64(seq)})
		})
	}

	switch {
	case spec.Spoofer != nil:
		spec.Spoofer.Install(router)
	case spec.Hooks != nil:
		router.SetHooks(*spec.Hooks)
	}

	n.Responder = &detect.Responder{Self: id, Router: router}
	switch {
	case spec.Forger != nil:
		spec.Forger.Self = id
		spec.Forger.Log = logs
		n.Responder.Liar = spec.Forger.Mutate
	case spec.Liar != nil:
		n.Responder.Liar = spec.Liar.Mutate
	}
	if w.cfg.Evidence {
		n.Responder.Evidence = &detect.EvidenceProvider{Log: logs}
		n.heads = make(map[addr.Node]auditlog.TreeHead)
	}
	if w.cfg.Reputation.Enabled {
		n.recSeen = make(map[addr.Node]uint16)
		n.Recommender = spec.Recommender
	}

	if spec.Detector != nil {
		params := trust.DefaultParams()
		if spec.TrustParams != nil {
			params = *spec.TrustParams
		}
		n.Trust = trust.NewStoreIndexed(params, w.index)
		dcfg := *spec.Detector
		dcfg.Self = id
		dcfg.Tracer = w.tracer
		if w.tracer.On() {
			self := id.String()
			n.Trust.SetOnUpdate(func(subject addr.Node, old, now float64) {
				w.tracer.Emit(trace.Event{Plane: trace.PlaneTrust, Kind: trace.KindUpdate,
					Node: self, Peer: subject.String(), V0: old, V1: now})
			})
		}
		if w.cfg.Reputation.Enabled {
			n.Rep = reputation.NewLedger(id, n.Trust, w.cfg.Reputation.NoFilter)
			if w.tracer.On() {
				self := id.String()
				n.Rep.OnIngest = func(rec addr.Node, passed, failed int) {
					w.tracer.Emit(trace.Event{Plane: trace.PlaneReputation, Kind: trace.KindIngest,
						Node: self, Peer: rec.String(), V0: float64(passed), V1: float64(failed)})
				}
			}
			dcfg.Bootstrap = &ledgerBootstrap{node: n}
		}
		if w.cfg.Evidence {
			dcfg.Heads = n
		}
		n.Detector = detect.NewDetector(dcfg, w.Sched, router, logs, &nodeTransport{node: n}, n.Trust)
		if n.Rep != nil {
			n.Rep.OnDishonest = n.Detector.ReportDishonestRecommender
		}
	}

	w.Medium.Attach(id,
		func() geo.Point { return n.pos.Position(w.Sched.Now()) },
		n.handleFrame,
	)
	w.nodes[id] = n
	w.order = append(w.order, id)
	return n
}

// broadcastOLSR is the router's send function: it prefixes an encoded
// OLSR packet with its discriminator in the node's transmit scratch and
// broadcasts it. The medium copies the payload, so the scratch is free
// again once Send returns.
func (n *Node) broadcastOLSR(pkt []byte) {
	n.txBuf = append(append(n.txBuf[:0], PayloadOLSR), pkt...)
	n.net.Send(n.ID, addr.Broadcast, n.txBuf)
}

// Node returns the node with the given id, or nil.
func (w *Network) Node(id addr.Node) *Node { return w.nodes[id] }

// Position returns the node's current location — the same sample the
// medium takes at transmission time. Colocated attack hardware (wormhole
// mouths, compromised emitters) keys off it.
func (n *Node) Position() geo.Point { return n.pos.Position(n.net.Sched.Now()) }

// Nodes returns the node ids in insertion order.
func (w *Network) Nodes() []addr.Node {
	out := make([]addr.Node, len(w.order))
	copy(out, w.order)
	return out
}

// Start launches every router and detector, and — with the evidence or
// reputation plane enabled — the corresponding per-node gossip.
func (w *Network) Start() {
	for _, id := range w.order {
		n := w.nodes[id]
		n.Router.Start()
		if n.Detector != nil {
			n.Detector.Start()
		}
		if w.cfg.Evidence {
			w.Sched.Every(headGossipInterval, headGossipInterval, 0.1, n.gossipHead)
		}
		if w.cfg.Reputation.Enabled && (n.Rep != nil || n.Recommender != nil) {
			w.Sched.Every(recommendGossipInterval, recommendGossipInterval, 0.1, n.gossipRecommend)
		}
	}
}

// LatestHead implements detect.HeadSource over the node's gossip view.
func (n *Node) LatestHead(x addr.Node) (auditlog.TreeHead, bool) {
	h, ok := n.heads[x]
	return h, ok
}

// RunFor advances virtual time by d.
func (w *Network) RunFor(d time.Duration) {
	w.Sched.RunUntil(w.Sched.Now() + d)
}

// handleFrame dispatches a received radio frame by payload discriminator.
func (n *Node) handleFrame(f radio.Frame) {
	if len(f.Payload) < 1 {
		return
	}
	body := f.Payload[1:]
	if w := n.net; w.tracer.On() {
		w.tracer.Emit(trace.Event{Plane: trace.PlaneNet, Kind: trace.KindRecv,
			Node: n.ID.String(), Peer: f.From.String(), Msg: payloadName(f.Payload)})
	}
	switch f.Payload[0] {
	case PayloadOLSR:
		n.Router.HandlePacket(f.From, body)
	case PayloadCtrl:
		n.handleCtrl(body)
	case PayloadRecommend:
		n.handleRecommend(body)
	}
}

// CtrlStats reports control-plane counters (for the overhead experiment).
type CtrlStats struct {
	Sent, Delivered, Dropped uint64
}

// CtrlStats returns the control-plane counters.
func (w *Network) CtrlStats() CtrlStats {
	return CtrlStats{Sent: w.ctrlSent, Delivered: w.ctrlDelivered, Dropped: w.ctrlDropped}
}
