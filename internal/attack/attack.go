// Package attack implements the adversarial behaviors of the paper: the
// three link-spoofing variants of §III-A (Expressions 1–3), the drop
// attacks (black hole, gray hole), the broadcast storm and replay attacks
// of §II-B, and the lying colluders of §V that foil investigations with
// incorrect answers.
//
// Routing-level attacks install themselves on an OLSR node through its
// Hooks; the Liar operates at the investigation layer.
package attack

import (
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/geo"
	"repro/internal/olsr"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SpoofMode selects one of the paper's three link-spoofing variants.
type SpoofMode int

// Spoofing variants (paper §III-A).
const (
	// SpoofPhantom declares a non-existing node as a symmetric neighbor
	// (Expression 1): guarantees the attacker is selected as MPR.
	SpoofPhantom SpoofMode = iota + 1
	// SpoofClaim declares an existing node as a symmetric neighbor even
	// though it is not (Expression 2): inflates connectivity, typically to
	// provision a black hole.
	SpoofClaim
	// SpoofOmit omits an existing symmetric neighbor (Expression 3):
	// artificially lowers the victim's and the attacker's connectivity.
	SpoofOmit
)

// String implements fmt.Stringer.
func (m SpoofMode) String() string {
	switch m {
	case SpoofPhantom:
		return "phantom-neighbor"
	case SpoofClaim:
		return "claimed-non-neighbor"
	case SpoofOmit:
		return "omitted-neighbor"
	default:
		return "unknown"
	}
}

// LinkSpoofer forges the symmetric-neighbor set in outgoing HELLOs.
type LinkSpoofer struct {
	Mode SpoofMode
	// Target is the address the spoof is about: the phantom address
	// (SpoofPhantom), the claimed non-neighbor (SpoofClaim) or the
	// omitted real neighbor (SpoofOmit).
	Target addr.Node
	// Active gates the attack; nil means always active. Experiments use
	// it to cease the attack mid-run (Fig. 2).
	Active func() bool

	spoofed uint64
	forged  [1]addr.Node // the forged link block's neighbor list
}

// Spoofed returns how many HELLOs were forged.
func (s *LinkSpoofer) Spoofed() uint64 { return s.spoofed }

// Hook returns the ModifyHello hook implementing the configured variant.
func (s *LinkSpoofer) Hook() func(*wire.Hello) {
	return func(h *wire.Hello) {
		if s.Active != nil && !s.Active() {
			return
		}
		s.spoofed++
		switch s.Mode {
		case SpoofPhantom, SpoofClaim:
			// Both insert a forged symmetric link; they differ only in
			// whether Target exists in the network. The HELLO is encoded
			// before the next one is built, so the block can share one
			// array across HELLOs.
			s.forged[0] = s.Target
			h.Links = append(h.Links, wire.LinkBlock{
				Code:      wire.MakeLinkCode(wire.NeighSym, wire.LinkSym),
				Neighbors: s.forged[:],
			})
		case SpoofOmit:
			for i := range h.Links {
				kept := h.Links[i].Neighbors[:0]
				for _, n := range h.Links[i].Neighbors {
					if n != s.Target {
						kept = append(kept, n)
					}
				}
				h.Links[i].Neighbors = kept
			}
			// Drop now-empty blocks.
			blocks := h.Links[:0]
			for _, lb := range h.Links {
				if len(lb.Neighbors) > 0 {
					blocks = append(blocks, lb)
				}
			}
			h.Links = blocks
		}
	}
}

// Install registers the spoofer on a node.
func (s *LinkSpoofer) Install(n *olsr.Node) {
	n.SetHooks(olsr.Hooks{ModifyHello: s.Hook()})
}

// BlackHole drops every message the node should forward as an MPR.
type BlackHole struct {
	// Active gates the attack; nil means always active.
	Active func() bool

	dropped uint64
}

// Dropped returns how many forwards were suppressed.
func (b *BlackHole) Dropped() uint64 { return b.dropped }

// Hooks returns the DropForward hook implementing the attack.
func (b *BlackHole) Hooks() olsr.Hooks {
	return olsr.Hooks{DropForward: func(*wire.Message, addr.Node) bool {
		if b.Active != nil && !b.Active() {
			return false
		}
		b.dropped++
		return true
	}}
}

// Install registers the black hole on a node.
func (b *BlackHole) Install(n *olsr.Node) { n.SetHooks(b.Hooks()) }

// GrayHole drops a configurable fraction of the messages it should
// forward — the selective variant of the drop attack.
type GrayHole struct {
	// Ratio in [0,1] of forwards to drop.
	Ratio float64
	// Rand supplies the drop decisions; required.
	Rand *rand.Rand
	// Active gates the attack; nil means always active.
	Active func() bool

	dropped, relayed uint64
}

// Dropped and Relayed report the gray hole's split.
func (g *GrayHole) Dropped() uint64 { return g.dropped }

// Relayed returns how many forwards were allowed through.
func (g *GrayHole) Relayed() uint64 { return g.relayed }

// Hooks returns the DropForward hook implementing the attack.
func (g *GrayHole) Hooks() olsr.Hooks {
	return olsr.Hooks{DropForward: func(*wire.Message, addr.Node) bool {
		if g.Active != nil && !g.Active() {
			return false
		}
		if g.Rand.Float64() < g.Ratio {
			g.dropped++
			return true
		}
		g.relayed++
		return false
	}}
}

// Install registers the gray hole on a node.
func (g *GrayHole) Install(n *olsr.Node) { n.SetHooks(g.Hooks()) }

// Wormhole is an out-of-band tunnel between two distant points of the
// arena (the classic colluding-adversary attack of the routing-security
// literature): each tunnel mouth records the link-layer broadcasts it
// overhears and re-emits them verbatim at the opposite mouth, so nodes
// near one mouth perceive nodes near the other as direct neighbors.
// Because OLSR link sensing keys on the HELLO originator — not on the
// link-layer sender — the mouths themselves stay invisible to the
// routing layer: the fabricated links connect the victims directly.
type Wormhole struct {
	// MouthA and MouthB are the station ids of the two tunnel mouths.
	// They must not collide with any real node address.
	MouthA, MouthB addr.Node
	// IgnoreFrom lists additional senders whose frames must not be
	// tunneled — the mouths of every OTHER wormhole in the scenario.
	// Without it, two tunnels whose mouths are in radio range of each
	// other re-tunnel each other's output in an endless ping-pong. Set it
	// to the complete list: a later Add to the caller's copy is not seen.
	IgnoreFrom addr.Set
	// Delay is the extra tunnel latency applied to each relayed frame.
	Delay time.Duration
	// Active gates the tunnel; nil means always active.
	Active func() bool

	tunneled uint64
}

// Tunneled returns how many frames crossed the tunnel (both directions).
func (w *Wormhole) Tunneled() uint64 { return w.tunneled }

// Install attaches the two mouths to the medium at the given (possibly
// moving) positions. Mouths only overhear broadcasts — like a passive
// sniffer, they are never addressed directly — and they never relay each
// other's output, so the tunnel cannot feed back on itself.
func (w *Wormhole) Install(sched *sim.Scheduler, m *radio.Medium, posA, posB func() geo.Point) {
	m.Attach(w.MouthA, posA, w.relay(sched, m, w.MouthB))
	m.Attach(w.MouthB, posB, w.relay(sched, m, w.MouthA))
}

// relay returns the mouth handler that re-broadcasts overheard frames
// from the opposite mouth.
func (w *Wormhole) relay(sched *sim.Scheduler, m *radio.Medium, out addr.Node) radio.Handler {
	return func(f radio.Frame) {
		if f.From == w.MouthA || f.From == w.MouthB || w.IgnoreFrom.Has(f.From) {
			return // tunnel output — ours, or another wormhole's
		}
		if w.Active != nil && !w.Active() {
			return
		}
		w.tunneled++
		payload := append([]byte(nil), f.Payload...)
		to := f.To
		sched.After(w.Delay, func() { m.Send(out, to, payload) })
	}
}

// Colluders coordinates a group of colluding spoofers: every member
// claim-advertises a link to the next member of the ring (Expression 2
// applied in mutual support) and answers investigations about any fellow
// member with lies — the combination of the §III-A spoofer and the §V
// lying colluder in one adversary.
type Colluders struct {
	// Members are the colluding nodes, in ring order.
	Members []addr.Node
	// Active gates all members' spoofing; nil means always active.
	Active func() bool

	spoofers []*LinkSpoofer
	liars    []*Liar
}

// NewColluders builds the coordinated group. mode selects the spoofing
// variant of each member (0 defaults to SpoofClaim); member i spoofs
// about member i+1 (mod n) and lies to protect every other member.
func NewColluders(mode SpoofMode, members ...addr.Node) *Colluders {
	if mode == 0 {
		mode = SpoofClaim
	}
	c := &Colluders{Members: members}
	group := addr.NewSet(members...)
	for i, m := range members {
		partner := members[(i+1)%len(members)]
		sp := &LinkSpoofer{Mode: mode, Target: partner}
		sp.Active = func() bool { return c.Active == nil || c.Active() }
		protect := group.Clone()
		protect.Remove(m)
		c.spoofers = append(c.spoofers, sp)
		c.liars = append(c.liars, &Liar{Protect: protect})
	}
	return c
}

// SpooferFor returns member i's link spoofer.
func (c *Colluders) SpooferFor(i int) *LinkSpoofer { return c.spoofers[i] }

// LiarFor returns member i's investigation liar.
func (c *Colluders) LiarFor(i int) *Liar { return c.liars[i] }

// Spoofed returns the total forged HELLOs across the group.
func (c *Colluders) Spoofed() uint64 {
	var n uint64
	for _, s := range c.spoofers {
		n += s.Spoofed()
	}
	return n
}

// Lies returns the total inverted answers across the group.
func (c *Colluders) Lies() uint64 {
	var n uint64
	for _, l := range c.liars {
		n += l.Lies()
	}
	return n
}

// Storm floods forged TC messages at a configurable rate, optionally
// masquerading as another node (§II-B: the storm is "typically coupled
// with a masquerade").
type Storm struct {
	// Spoof is the originator address written into the forged messages
	// (the masqueraded victim); use the attacker's own address for an
	// overt storm.
	Spoof addr.Node
	// Interval between forged messages.
	Interval time.Duration
	// Advertised is the neighbor set the forged TCs claim.
	Advertised []addr.Node

	seq    uint16
	ansn   uint16
	sent   uint64
	ticker *sim.Ticker
}

// Sent returns the number of forged messages emitted.
func (s *Storm) Sent() uint64 { return s.sent }

// Start begins flooding through send (a one-hop broadcast of an encoded
// packet). Stop the returned ticker to end the storm.
func (s *Storm) Start(sched *sim.Scheduler, send func([]byte)) *sim.Ticker {
	s.ticker = sched.Every(0, s.Interval, 0.1, func() {
		s.seq += 7 // stride to avoid colliding with the victim's own seq
		s.ansn++
		p := &wire.Packet{Seq: s.seq, Messages: []wire.Message{{
			VTime:      15 * time.Second,
			Originator: s.Spoof,
			TTL:        255,
			Seq:        s.seq,
			Body:       &wire.TC{ANSN: s.ansn, Advertised: s.Advertised},
		}}}
		send(p.Encode())
		s.sent++
	})
	return s.ticker
}

// Replayer records flooded messages and re-emits them after a delay,
// reproducing the §II-B replay attack (stale routing information is
// re-injected; sequence numbers make receivers log stale drops).
type Replayer struct {
	// Delay before a captured packet is replayed.
	Delay time.Duration
	// Copies of each capture to replay.
	Copies int
}

// Capture schedules the replay of one raw packet.
func (r *Replayer) Capture(sched *sim.Scheduler, send func([]byte), raw []byte) {
	copies := r.Copies
	if copies <= 0 {
		copies = 1
	}
	buf := make([]byte, len(raw))
	copy(buf, raw)
	for i := 1; i <= copies; i++ {
		sched.After(r.Delay*time.Duration(i), func() { send(buf) })
	}
}

// AlibiLink is one fabricated adjacency a LogForger backs with forged
// records: the protected suspect and the link endpoint it claims.
type AlibiLink struct {
	Suspect, Endpoint addr.Node
}

// LogForger is the evidence-plane adversary (DESIGN.md §8): a responder
// that lies to protect its accomplices AND rewrites its own audit log so
// the citations attached to its lies point at fabricated records. The
// rewrite is exactly what the sealed log makes evident — the forger's
// rebuilt Merkle tree cannot be linked to any tree head it gossiped
// before the rewrite — so this attacker exists to be caught: the
// log-forger scenarios measure how fast, and at what collusion fraction
// the catch still happens.
type LogForger struct {
	// Self is the forger's own address (set by core when installed).
	Self addr.Node
	// Log is the forger's own sealed audit log (set by core).
	Log *auditlog.Buffer
	// Alibis are the fabricated adjacencies to plant records for.
	Alibis []AlibiLink
	// Liar supplies the testimony-inversion behavior; its Protect set
	// names the suspects the forger covers for.
	Liar Liar
	// Active gates both the lying and the forging; nil = always active.
	Active func() bool

	rewrites   uint64
	fabricated uint64
}

// Rewrites returns how many times the forger rewrote its history.
func (f *LogForger) Rewrites() uint64 { return f.rewrites }

// Fabricated returns how many alibi records the forger planted.
func (f *LogForger) Fabricated() uint64 { return f.fabricated }

// Lies returns how many investigation answers the forger inverted.
func (f *LogForger) Lies() uint64 { return f.Liar.Lies() }

// Mutate is the responder hook: honest until Active, lying like a Liar
// afterwards.
func (f *LogForger) Mutate(suspect addr.Node, linkExists, answered bool) (bool, bool) {
	if f.Active != nil && !f.Active() {
		return linkExists, answered
	}
	return f.Liar.Mutate(suspect, linkExists, answered)
}

// Forge performs one rewrite pass at virtual time now: it erases every
// retained HELLO_RX from the alibi endpoints (the records that would
// contradict the story), plants fresh fabricated HELLOs advertising the
// protected links, and reseals the log: the reseal rebuilds the Merkle
// tree from the rewritten history.
func (f *LogForger) Forge(now time.Duration) {
	if f.Active != nil && !f.Active() {
		return
	}
	endpoints := make(addr.Set, 0, len(f.Alibis))
	for _, a := range f.Alibis {
		endpoints.Add(a.Endpoint)
	}
	alibis := make([]auditlog.Record, 0, len(f.Alibis))
	for _, a := range f.Alibis {
		alibis = append(alibis, auditlog.Record{
			T:    now,
			Node: f.Self,
			Kind: auditlog.KindHelloRx,
			Fields: []auditlog.Field{
				auditlog.FNode("from", a.Endpoint),
				auditlog.FNodes("sym", []addr.Node{a.Suspect, f.Self}),
			},
		})
		f.fabricated++
	}
	f.Log.Rewrite(func(l auditlog.Line) bool {
		if l.Kind() != auditlog.KindHelloRx {
			return true
		}
		from, err := l.NodeField("from")
		return err != nil || !endpoints.Has(from) // reality, erased
	}, alibis...)
	f.rewrites++
}

// Start schedules periodic forging so the alibi stays fresh against the
// router's ongoing honest logging. Stop the returned ticker to cease.
func (f *LogForger) Start(sched *sim.Scheduler, start, interval time.Duration) *sim.Ticker {
	return sched.Every(start, interval, 0, func() { f.Forge(sched.Now()) })
}

// Liar answers link-verification requests falsely to foil investigations
// (the colluding misbehaving nodes of §V). It does not itself spoof links.
type Liar struct {
	// Protect limits the lying to requests about these suspects; nil
	// means lie about everyone.
	Protect addr.Set

	lies uint64
}

// Lies returns how many answers were inverted.
func (l *Liar) Lies() uint64 { return l.lies }

// Mutate inverts an investigation answer when the request concerns a
// protected suspect.
func (l *Liar) Mutate(suspect addr.Node, linkExists bool, known bool) (bool, bool) {
	if l.Protect != nil && !l.Protect.Has(suspect) {
		return linkExists, known
	}
	l.lies++
	return !linkExists, true
}
