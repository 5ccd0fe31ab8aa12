package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/olsr"
	"repro/internal/radio"
	"repro/internal/reputation"
	"repro/internal/trace"
	"repro/internal/trust"
)

// Seed-derivation labels. waypointSeedLabel predates this package (the
// PR-1 full-stack runner used it for per-node waypoint streams) and is
// kept verbatim so the X1 mobility specs (experiment.mobilitySpec)
// replay the exact same trajectories.
const (
	waypointSeedLabel = "fullstack-waypoint"
	walkSeedLabel     = "scenario-walk"
	grayholeSeedLabel = "scenario-grayhole"
	uniformSeedLabel  = "scenario-uniform"
)

// phantomOffset is the conventional host offset of the phantom address a
// spoofer advertises when the spec names no explicit target: node index
// Nodes+phantomOffset, guaranteed outside the membership set.
const phantomOffset = 83

// wormholeMouthBase offsets wormhole mouth station ids past every real
// node and the phantom: mouth indices are Nodes+wormholeMouthBase+2k and
// +2k+1 for the k-th wormhole of the mix.
const wormholeMouthBase = 900

// forgeInterval is how often a log forger rewrites its history to keep
// the alibi ahead of its router's honest logging.
const forgeInterval = 2 * time.Second

// Counter is one named attack-side statistic of a suspect.
type Counter struct {
	Name  string
	Value uint64
}

// suspectHandle tracks one attack entry through a run.
type suspectHandle struct {
	spec     AttackSpec
	node     addr.Node
	counters func() []Counter
}

// Built is an instantiated packet-level scenario, ready to Start.
type Built struct {
	Spec   Spec
	Net    *core.Network
	Victim addr.Node

	suspects []*suspectHandle
}

// Build instantiates a packet-kind spec into a network. The construction
// order is part of the determinism contract: nodes are added in index
// order, then attack infrastructure (wormhole mouths, storm schedules) in
// attack-mix order, then the Custom hook runs; Start is left to the
// caller (Run).
func Build(spec Spec) (*Built, error) {
	return build(spec, nil)
}

// build is Build with a run-trace sink (DESIGN.md §13) attached to the
// network before any node exists, so the trace covers the whole run from
// the first scheduler dispatch. A nil sink is exactly Build: the
// network's tracer stays nil and every emission site reduces to one
// predicted branch. Spec.Trace only *requests* tracing — this parameter
// is where a runner supplies the destination.
func build(spec Spec, sink trace.Sink) (*Built, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != KindPacket {
		return nil, fmt.Errorf("scenario %q: Build needs a packet scenario, got kind %q", spec.Name, spec.Kind)
	}

	repCfg := core.ReputationConfig{}
	if spec.Reputation != nil && spec.Reputation.Enabled {
		repCfg = core.ReputationConfig{Enabled: true, NoFilter: spec.Reputation.NoFilter}
	}
	w := core.NewNetwork(core.Config{
		Seed:       spec.Seed,
		Evidence:   spec.Evidence != nil && spec.Evidence.Enabled,
		Reputation: repCfg,
		Trace:      sink,
		Radio: radio.Config{
			Prop:      spec.radioProp(),
			PropDelay: spec.Radio.PropDelay.D(),
			Grid:      spec.Radio.Medium == "grid",
			// Mobility.MaxSpeed bounds every moving station the builder
			// creates: waypoint and walk models never exceed it, pinned
			// attackers and explicit placements are static, and wormhole
			// mouths track node positions. That bound is what licenses the
			// grid's cell padding (DESIGN.md §2.4).
			MaxSpeed: spec.Mobility.MaxSpeed,
		},
	})
	b := &Built{Spec: spec, Net: w, Victim: addr.NodeAt(spec.Victim)}

	pts, err := spec.placement()
	if err != nil {
		return nil, err
	}
	known := make(addr.Set, 0, spec.Nodes)
	for i := 1; i <= spec.Nodes; i++ {
		known.Add(addr.NodeAt(i))
	}

	// Resolve the attack mix into per-node roles before the node loop.
	type role struct {
		spoofer     *attack.LinkSpoofer
		hooks       *olsr.Hooks
		liar        *attack.Liar
		forger      *attack.LogForger
		recommender *attack.Recommender
		pin         bool
		dropCtl     bool
	}
	roles := make(map[int]*role)
	roleOf := func(i int) *role {
		r, ok := roles[i]
		if !ok {
			r = &role{}
			roles[i] = r
		}
		return r
	}
	activeAfter := func(at Duration) func() bool {
		return func() bool { return w.Sched.Now() >= at.D() }
	}
	// deferred collects work that must wait until every node exists
	// (wormhole mouths need node positions, storms need the medium).
	var deferred []func()
	// allMouths accumulates every wormhole mouth of the mix; each tunnel
	// gets the whole set at install time so no tunnel ever relays
	// another's output.
	var allMouths addr.Set

	for ai := range spec.Attacks {
		a := spec.Attacks[ai]
		switch a.Kind {
		case "linkspoof":
			sp := &attack.LinkSpoofer{Mode: spoofMode(a.Mode), Target: spec.spoofTarget(a)}
			sp.Active = activeAfter(a.At)
			r := roleOf(a.Node)
			r.spoofer = sp
			r.pin = a.Pin
			r.dropCtl = a.DropCtrl
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{{"spoofed", sp.Spoofed()}}
			})
		case "blackhole":
			bh := &attack.BlackHole{Active: activeAfter(a.At)}
			h := bh.Hooks()
			r := roleOf(a.Node)
			r.hooks = &h
			r.pin = a.Pin
			r.dropCtl = a.DropCtrl
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{{"dropped", bh.Dropped()}}
			})
		case "grayhole":
			gh := &attack.GrayHole{
				Ratio:  a.Ratio,
				Rand:   rand.New(rand.NewSource(DeriveSeed(spec.Seed, grayholeSeedLabel, a.Node, 0))), //nolint:gosec // simulation
				Active: activeAfter(a.At),
			}
			h := gh.Hooks()
			r := roleOf(a.Node)
			r.hooks = &h
			r.pin = a.Pin
			r.dropCtl = a.DropCtrl
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{{"dropped", gh.Dropped()}, {"relayed", gh.Relayed()}}
			})
		case "colluding":
			col := attack.NewColluders(spoofMode(a.Mode), addr.NodeAt(a.Node), addr.NodeAt(a.Peer))
			col.Active = activeAfter(a.At)
			for mi, idx := range []int{a.Node, a.Peer} {
				r := roleOf(idx)
				r.spoofer = col.SpooferFor(mi)
				r.liar = col.LiarFor(mi)
				r.dropCtl = a.DropCtrl
			}
			roleOf(a.Node).pin = a.Pin
			for _, idx := range []int{a.Node, a.Peer} {
				b.addSuspect(a, idx, func() []Counter {
					return []Counter{{"spoofed", col.Spoofed()}, {"lies", col.Lies()}}
				})
			}
		case "wormhole":
			wh := &attack.Wormhole{
				MouthA: addr.NodeAt(spec.Nodes + wormholeMouthBase + 2*ai),
				MouthB: addr.NodeAt(spec.Nodes + wormholeMouthBase + 2*ai + 1),
				Delay:  a.Delay.D(),
				Active: activeAfter(a.At),
			}
			allMouths.Add(wh.MouthA)
			allMouths.Add(wh.MouthB)
			nodeID, peerID := addr.NodeAt(a.Node), addr.NodeAt(a.Peer)
			deferred = append(deferred, func() {
				wh.IgnoreFrom = allMouths
				wh.Install(w.Sched, w.Medium,
					func() geo.Point { return w.Node(nodeID).Position() },
					func() geo.Point { return w.Node(peerID).Position() })
			})
			for _, idx := range []int{a.Node, a.Peer} {
				b.addSuspect(a, idx, func() []Counter {
					return []Counter{{"tunneled", wh.Tunneled()}}
				})
			}
		case "logforge":
			// The forger covers for the mix's spoofing attackers: it lies
			// about them as a responder and plants fabricated HELLO records
			// backing their claimed links, resealing its log each pass.
			lf := &attack.LogForger{
				Alibis: spec.alibisFor(a),
				Liar:   attack.Liar{Protect: spec.protectedBy(a)},
			}
			lf.Active = activeAfter(a.At)
			r := roleOf(a.Node)
			r.forger = lf
			r.dropCtl = a.DropCtrl
			at := a.At.D()
			deferred = append(deferred, func() {
				lf.Start(w.Sched, at, forgeInterval)
			})
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{
					{"rewrites", lf.Rewrites()},
					{"fabricated", lf.Fabricated()},
					{"lies", lf.Lies()},
				}
			})
		case "badmouth", "ballotstuff":
			rc := &attack.Recommender{
				Strategy: attack.Badmouth,
				OnOff:    a.OnOff.D(),
			}
			if a.Kind == "ballotstuff" {
				rc.Strategy = attack.BallotStuff
				rc.Targets = spec.vouchedBy(a)
			} else {
				rc.Targets = spec.framedBy(a)
			}
			rc.Active = activeAfter(a.At)
			roleOf(a.Node).recommender = rc
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{
					{"forged", rc.Forged()},
					{"camouflaged", rc.Camouflaged()},
				}
			})
		case "storm":
			st := &attack.Storm{
				Spoof:      addr.NodeAt(a.Peer),
				Interval:   a.Interval.D(),
				Advertised: []addr.Node{spec.stormAdvertised(a)},
			}
			if st.Interval <= 0 {
				st.Interval = 400 * time.Millisecond
			}
			emitter := addr.NodeAt(a.Node)
			at, dur := a.At.D(), a.For.D()
			deferred = append(deferred, func() {
				w.Sched.After(at, func() {
					var buf []byte // the medium copies what it sends
					t := st.Start(w.Sched, func(p []byte) {
						buf = append(append(buf[:0], core.PayloadOLSR), p...)
						w.Send(emitter, addr.Broadcast, buf)
					})
					if dur > 0 {
						w.Sched.After(dur, t.Stop)
					}
				})
			})
			b.addSuspect(a, a.Node, func() []Counter {
				return []Counter{{"sent", st.Sent()}}
			})
		}
	}

	// Liars protect every attacking node.
	protect := make(addr.Set, 0, len(b.suspects))
	for _, s := range b.suspects {
		protect.Add(s.node)
	}

	for i := 1; i <= spec.Nodes; i++ {
		id := addr.NodeAt(i)
		ns := core.NodeSpec{ID: id, Pos: spec.mobilityFor(i, pts[i-1])}
		if id == b.Victim || spec.DetectAll {
			ns.Detector = &detect.Config{KnownNodes: known.Clone()}
			ns.TrustParams = spec.Trust
		}
		if r := roles[i]; r != nil {
			ns.Spoofer = r.spoofer
			ns.Hooks = r.hooks
			ns.DropControl = r.dropCtl
			ns.Forger = r.forger
			ns.Recommender = r.recommender
			if r.liar != nil {
				ns.Liar = r.liar
			}
			if r.pin {
				ns.Pos = mobility.Static{P: pts[spec.Victim-1].Add(geo.Vec{X: spec.Radio.Range / 2})}
			}
		}
		if ns.Liar == nil && ns.Forger == nil && i > 1 && i <= 1+spec.Liars {
			ns.Liar = &attack.Liar{Protect: protect.Clone()}
		}
		w.AddNode(ns)
	}

	for _, fn := range deferred {
		fn()
	}
	if spec.Custom != nil {
		spec.Custom(w)
	}
	return b, nil
}

// addSuspect records one attack node for result extraction.
func (b *Built) addSuspect(a AttackSpec, nodeIdx int, counters func() []Counter) {
	b.suspects = append(b.suspects, &suspectHandle{
		spec:     a,
		node:     addr.NodeAt(nodeIdx),
		counters: counters,
	})
}

// radioProp resolves the propagation model.
func (s Spec) radioProp() radio.Propagation {
	if s.Radio.Model == "lossy" {
		return radio.LossyDisk{Range: s.Radio.Range, FadeRange: s.Radio.FadeRange, Loss: s.Radio.Loss}
	}
	return radio.UnitDisk{Range: s.Radio.Range}
}

// placement resolves the initial node positions.
func (s Spec) placement() ([]geo.Point, error) {
	if len(s.Positions) > 0 {
		pts := make([]geo.Point, len(s.Positions))
		for i, p := range s.Positions {
			pts[i] = geo.Pt(p.X, p.Y)
		}
		return pts, nil
	}
	arena := geo.Arena(s.ArenaSide, s.ArenaSide)
	switch s.Placement {
	case "grid":
		return mobility.GridPlacement(arena, s.Nodes), nil
	case "line":
		spacing := s.Spacing
		if spacing <= 0 {
			spacing = 100
		}
		return mobility.LinePlacement(geo.Pt(0, 0), spacing, s.Nodes), nil
	case "ring":
		radius := s.Spacing
		if radius <= 0 {
			radius = s.ArenaSide / 2
		}
		return mobility.RingPlacement(arena.Center(), radius, s.Nodes), nil
	case "uniform":
		rng := rand.New(rand.NewSource(DeriveSeed(s.Seed, uniformSeedLabel, 0, 0))) //nolint:gosec // simulation
		return mobility.UniformPlacement(rng, arena, s.Nodes), nil
	}
	return nil, fmt.Errorf("scenario %q: unknown placement %q", s.Name, s.Placement)
}

// mobilityFor builds node i's movement model starting at start.
func (s Spec) mobilityFor(i int, start geo.Point) mobility.Model {
	arena := geo.Arena(s.ArenaSide, s.ArenaSide)
	switch {
	case s.Mobility.Model == "waypoint" && s.Mobility.MaxSpeed > 0:
		minSpeed := s.Mobility.MinSpeed
		if minSpeed <= 0 {
			minSpeed = s.Mobility.MaxSpeed / 2
		}
		return mobility.NewRandomWaypoint(DeriveSeed(s.Seed, waypointSeedLabel, i, 0), mobility.WaypointConfig{
			Arena:    arena,
			Start:    start,
			MinSpeed: minSpeed,
			MaxSpeed: s.Mobility.MaxSpeed,
			Pause:    durOf(s.Mobility.Pause, 5*time.Second),
		})
	case s.Mobility.Model == "walk" && s.Mobility.MaxSpeed > 0:
		return mobility.NewRandomWalk(DeriveSeed(s.Seed, walkSeedLabel, i, 0), mobility.WalkConfig{
			Arena: arena,
			Start: start,
			Speed: s.Mobility.MaxSpeed,
			Epoch: durOf(s.Mobility.Epoch, 10*time.Second),
		})
	}
	return mobility.Static{P: start}
}

// alibisFor resolves the fabricated adjacencies a logforge node plants:
// every claimed link of the attacks it covers for.
func (s Spec) alibisFor(a AttackSpec) []attack.AlibiLink {
	var out []attack.AlibiLink
	covers := func(n int) bool { return a.Peer == 0 || a.Peer == n }
	for _, other := range s.Attacks {
		switch other.Kind {
		case "linkspoof":
			if covers(other.Node) && spoofMode(other.Mode) != attack.SpoofOmit {
				out = append(out, attack.AlibiLink{
					Suspect:  addr.NodeAt(other.Node),
					Endpoint: s.spoofTarget(other),
				})
			}
		case "colluding":
			// Members claim each other in ring order.
			if covers(other.Node) {
				out = append(out, attack.AlibiLink{
					Suspect:  addr.NodeAt(other.Node),
					Endpoint: addr.NodeAt(other.Peer),
				})
			}
			if covers(other.Peer) {
				out = append(out, attack.AlibiLink{
					Suspect:  addr.NodeAt(other.Peer),
					Endpoint: addr.NodeAt(other.Node),
				})
			}
		}
	}
	return out
}

// protectedBy resolves the suspects a logforge node lies for: its named
// peer, or every attack node of the mix except itself.
func (s Spec) protectedBy(a AttackSpec) addr.Set {
	protect := addr.Set{}
	if a.Peer != 0 {
		protect.Add(addr.NodeAt(a.Peer))
		return protect
	}
	for _, other := range s.Attacks {
		if other.Node != a.Node {
			protect.Add(addr.NodeAt(other.Node))
		}
		switch other.Kind {
		case "colluding", "wormhole":
			if other.Peer != a.Node {
				protect.Add(addr.NodeAt(other.Peer))
			}
		}
	}
	return protect
}

// attackNodes returns every node index carrying any attack of the mix
// (including peers of two-party attacks).
func (s Spec) attackNodes() map[int]bool {
	out := make(map[int]bool)
	for _, a := range s.Attacks {
		out[a.Node] = true
		switch a.Kind {
		case "colluding", "wormhole":
			out[a.Peer] = true
		}
	}
	return out
}

// framedBy resolves the subjects a badmouth recommender lies about: its
// named peer, or every honest (non-attacking) node of the population.
// Sorted — the forged vector must be as deterministic as an honest one.
func (s Spec) framedBy(a AttackSpec) []addr.Node {
	if a.Peer != 0 {
		return []addr.Node{addr.NodeAt(a.Peer)}
	}
	attackers := s.attackNodes()
	out := make([]addr.Node, 0, s.Nodes)
	for i := 1; i <= s.Nodes; i++ {
		if !attackers[i] {
			out = append(out, addr.NodeAt(i))
		}
	}
	return out
}

// vouchedBy resolves the subjects a ballotstuff recommender inflates:
// its named peer, or every attacking node of the mix except itself.
func (s Spec) vouchedBy(a AttackSpec) []addr.Node {
	if a.Peer != 0 {
		return []addr.Node{addr.NodeAt(a.Peer)}
	}
	return s.protectedBy(a)
}

// spoofTarget resolves a linkspoof/colluding target address.
func (s Spec) spoofTarget(a AttackSpec) addr.Node {
	if a.Target > 0 {
		return addr.NodeAt(a.Target)
	}
	return addr.NodeAt(s.Nodes + phantomOffset)
}

// stormAdvertised resolves the neighbor set a storm's forged TCs claim.
func (s Spec) stormAdvertised(a AttackSpec) addr.Node {
	if a.Target > 0 {
		return addr.NodeAt(a.Target)
	}
	return addr.NodeAt(s.Victim)
}

// spoofMode parses the JSON mode string (defaulting to phantom; the
// colluding kind overrides the default to claim in NewColluders).
func spoofMode(mode string) attack.SpoofMode {
	switch mode {
	case "claim":
		return attack.SpoofClaim
	case "omit":
		return attack.SpoofOmit
	case "phantom", "":
		return attack.SpoofPhantom
	}
	return attack.SpoofPhantom
}

// Suspect is the per-attacker slice of a Result.
type Suspect struct {
	Node int
	Kind string
	// AttackAt echoes the spec's activation time.
	AttackAt time.Duration
	// ConvictedAt is when the victim first reached an intruder verdict
	// about this node, or -1 if it never did.
	ConvictedAt time.Duration
	// FalsePositive marks a conviction that landed before the attack
	// activated (mobility churn mimicking an attack).
	FalsePositive bool
	// FinalTrust is the victim's trust in the node at the end of the run.
	FinalTrust float64
	// Counters are the attack-side statistics (spoofed, dropped, ...).
	Counters []Counter
}

// AlertCount is one signature rule's alert count at the victim.
type AlertCount struct {
	Rule  string
	Count int
}

// RepStats is the reputation-plane slice of a Result, reduced at the
// victim's ledger. Nil when the plane is off, so pre-reputation digests
// are byte-identical.
type RepStats struct {
	// Vectors, Accepted and Rejected are the victim ledger's counters
	// (vectors ingested; entries through the deviation test).
	Vectors  uint64
	Accepted uint64
	Rejected uint64
	// Flagged is how many recommenders the victim reported dishonest.
	Flagged int
	// FramedHonest counts honest (non-attacking, non-victim) nodes whose
	// gossip-bootstrapped trust at the victim (Eq. 6/7 over fresh
	// recommendations, the value a stranger would be weighed at) ended
	// below half the cold default — the badmouthing success metric X9
	// sweeps. Direct trust is deliberately excluded: it has its own
	// dynamics, and the framing question is what the gossip channel
	// alone would make the victim believe. HonestCount is the
	// denominator; a node the gossip channel holds no usable opinion
	// about is not framed.
	FramedHonest int
	HonestCount  int
	// Bootstrapped is how many of those honest nodes carried any usable
	// recommendation at the end of the run.
	Bootstrapped int
	// MeanBootstrapTrust is the mean bootstrapped trust across the
	// Bootstrapped nodes.
	MeanBootstrapTrust float64
	// ShieldedSuspects counts attack-carrying nodes whose bootstrapped
	// trust at the victim ended above twice the cold default — the
	// ballot-stuffing success metric (mutual vouching inflating the
	// standing a stranger investigator would grant). SuspectCount is the
	// denominator.
	ShieldedSuspects int
	SuspectCount     int
}

// Result is the deterministic reduction of one scenario run.
type Result struct {
	Name  string
	Seed  int64
	Nodes int
	// SimTime is the simulated duration.
	SimTime time.Duration
	// Events is the number of scheduler events processed.
	Events uint64
	Frames radio.Stats
	Ctrl   core.CtrlStats
	// LogRecords is the number of audit records logged: a node's log
	// length where it keeps a log, its router's record count elsewhere.
	LogRecords int
	// Alerts are the victim detector's signature alerts by rule.
	Alerts []AlertCount
	// Investigations is the victim's investigation-round count.
	Investigations uint64
	Suspects       []Suspect
	// Reputation carries the reputation-plane reduction (nil = plane off).
	Reputation *RepStats
}

// verdictPollStep is how often Run samples the victim's verdicts. It
// only reads detector state — polling granularity cannot perturb the
// simulation, just the resolution of ConvictedAt.
const verdictPollStep = 500 * time.Millisecond

// Run builds, starts and executes a packet scenario and reduces it to a
// Result.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec, nil)
}

// RunTraced is Run with a run-trace sink. The Result is byte-identical
// to an untraced run of the same spec — tracing is pure observation.
func RunTraced(spec Spec, sink trace.Sink) (*Result, error) {
	return RunContext(context.Background(), spec, sink)
}

// RunContext is Run with cancellation and an optional run-trace sink
// (nil = untraced): the event loop checks ctx at every verdict-poll step
// (500ms of simulated time), so a campaign service can abandon a long
// run without waiting for it to finish. A canceled run returns ctx's
// error and no Result; cancellation cannot perturb a run that completes,
// because the check only ever aborts — it never reorders or drops
// events.
func RunContext(ctx context.Context, spec Spec, sink trace.Sink) (*Result, error) {
	b, err := build(spec, sink)
	if err != nil {
		return nil, err
	}
	spec = b.Spec
	w := b.Net
	w.Start()

	convictedAt := make([]time.Duration, len(b.suspects))
	for i := range convictedAt {
		convictedAt[i] = -1
	}
	det := w.Node(b.Victim).Detector
	for w.Sched.Now() < spec.Duration.D() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("scenario %q canceled at %s: %w", spec.Name, w.Sched.Now(), err)
		}
		w.RunFor(verdictPollStep)
		for i, s := range b.suspects {
			if convictedAt[i] >= 0 {
				continue
			}
			if v, ok := det.Verdict(s.node); ok && v == trust.Intruder {
				convictedAt[i] = w.Sched.Now()
			}
		}
	}

	res := &Result{
		Name:           spec.Name,
		Seed:           spec.Seed,
		Nodes:          spec.Nodes,
		SimTime:        w.Sched.Now(),
		Events:         w.Sched.Processed(),
		Frames:         w.Medium.Stats(),
		Ctrl:           w.CtrlStats(),
		Investigations: det.InvestigationCount(),
	}
	for _, id := range w.Nodes() {
		// Len, not Records, where a log exists: a forger's Rewrite
		// changes the length the log-forger goldens pin.
		if n := w.Node(id); n.Logs != nil {
			res.LogRecords += n.Logs.Len()
		} else {
			res.LogRecords += n.Router.Records()
		}
	}
	byRule := map[string]int{}
	for _, a := range det.Alerts() {
		byRule[a.Rule]++
	}
	res.Alerts = sortedAlerts(byRule)
	store := w.Node(b.Victim).Trust
	for i, s := range b.suspects {
		out := Suspect{
			Node:        s.node.Index(),
			Kind:        s.spec.Kind,
			AttackAt:    s.spec.At.D(),
			ConvictedAt: convictedAt[i],
			FinalTrust:  store.Get(s.node),
			Counters:    s.counters(),
		}
		if out.ConvictedAt >= 0 && out.ConvictedAt < out.AttackAt {
			out.FalsePositive = true
		}
		res.Suspects = append(res.Suspects, out)
	}
	if rep := w.Node(b.Victim).Rep; rep != nil {
		res.Reputation = reduceReputation(spec, w, rep, store)
	}
	return res, nil
}

// framedFloor is the bootstrapped-trust threshold below which an honest
// node counts as framed, and shieldedCeil the one above which an
// attacker counts as shielded — half and double the population's cold
// default respectively, levels honest gossip alone does not produce.
const (
	framedFloor  = 0.5
	shieldedCeil = 2.0
)

// reduceReputation reads the victim's ledger into the Result: counters,
// plus the framing metric over the honest population — each honest
// node's bootstrapped trust at the victim, i.e. what the gossip channel
// alone (Eq. 6/7 over fresh, deviation-filtered recommendations) would
// make the victim believe about a stranger.
func reduceReputation(spec Spec, w *core.Network, rep *reputation.Ledger, store *trust.Store) *RepStats {
	st := rep.Stats()
	out := &RepStats{
		Vectors:  st.Vectors,
		Accepted: st.Accepted,
		Rejected: st.Rejected,
		Flagged:  st.Flagged,
	}
	attackers := spec.attackNodes()
	def := store.Params().Default
	var sum float64
	for i := 1; i <= spec.Nodes; i++ {
		if i == spec.Victim {
			continue
		}
		v, ok := rep.BootstrapTrust(addr.NodeAt(i), w.Sched.Now())
		if attackers[i] {
			out.SuspectCount++
			if ok && v > def*shieldedCeil {
				out.ShieldedSuspects++
			}
			continue
		}
		out.HonestCount++
		if !ok {
			continue
		}
		out.Bootstrapped++
		sum += v
		if v < def*framedFloor {
			out.FramedHonest++
		}
	}
	if out.Bootstrapped > 0 {
		out.MeanBootstrapTrust = sum / float64(out.Bootstrapped)
	}
	return out
}
