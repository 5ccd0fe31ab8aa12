package core

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/trust"
)

// clusterSpec builds the canonical end-to-end world (see detect tests):
//
//	victim 1 at the center-left; suspect 9 to its right; nodes 2,3,5,6 in
//	range of both; node 4 in range of the victim only.
func clusterPositions() map[addr.Node]geo.Point {
	return map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(9): geo.Pt(100, 0),
		addr.NodeAt(2): geo.Pt(50, 60),
		addr.NodeAt(3): geo.Pt(50, -60),
		addr.NodeAt(5): geo.Pt(60, 30),
		addr.NodeAt(6): geo.Pt(60, -30),
		addr.NodeAt(4): geo.Pt(-100, 0),
	}
}

type clusterOpts struct {
	spoofer *attack.LinkSpoofer
	liars   map[addr.Node]*attack.Liar
	seed    int64
	// extra adds nodes beyond the base cluster (e.g. an isolated far
	// node for the distant-claim attack).
	extra map[addr.Node]geo.Point
}

func newCluster(t *testing.T, opts clusterOpts) *Network {
	t.Helper()
	if opts.seed == 0 {
		opts.seed = 1
	}
	w := NewNetwork(Config{
		Seed:  opts.seed,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})
	positions := clusterPositions()
	for id, p := range opts.extra {
		positions[id] = p
	}
	known := addr.NewSet()
	for id := range positions {
		known.Add(id)
	}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: positions[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		if id == addr.NodeAt(9) {
			spec.Spoofer = opts.spoofer
			spec.DropControl = opts.spoofer != nil
		}
		if l, ok := opts.liars[id]; ok {
			spec.Liar = l
		}
		w.AddNode(spec)
	}
	return w
}

func TestHonestNetworkNoConvictions(t *testing.T) {
	w := newCluster(t, clusterOpts{})
	w.Start()
	w.RunFor(90 * time.Second)

	det := w.Node(addr.NodeAt(1)).Detector
	for _, id := range w.Nodes() {
		if v, ok := det.Verdict(id); ok && v == trust.Intruder {
			t.Errorf("honest node %v convicted", id)
		}
	}
	// Routing must have converged: the victim reaches everyone.
	r := w.Node(addr.NodeAt(1)).Router
	for _, id := range w.Nodes() {
		if id == addr.NodeAt(1) {
			continue
		}
		if _, ok := r.RouteTo(id); !ok {
			t.Errorf("no route to %v after convergence", id)
		}
	}
}

// spoofAt returns an Active gate that turns the attack on at the given
// virtual time.
func spoofAt(w *Network, at time.Duration) func() bool {
	return func() bool { return w.Sched.Now() >= at }
}

func TestPhantomSpoofConvictedEndToEnd(t *testing.T) {
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	w := newCluster(t, clusterOpts{spoofer: spoofer})
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(180 * time.Second)

	victim := w.Node(addr.NodeAt(1))
	v, ok := victim.Detector.Verdict(addr.NodeAt(9))
	if !ok {
		t.Fatalf("no verdict; alerts=%d investigations=%d reports=%d",
			len(victim.Detector.Alerts()), victim.Detector.InvestigationCount(),
			len(victim.Detector.Reports()))
	}
	if v != trust.Intruder {
		reports := victim.Detector.Reports()
		last := reports[len(reports)-1]
		t.Fatalf("verdict = %v (Detect %.3f, round %d, links %v)",
			v, last.Detect, last.Round, last.Links)
	}
	if got := victim.Trust.Get(addr.NodeAt(9)); got > 0.2 {
		t.Errorf("spoofer trust = %v after conviction", got)
	}
	if spoofer.Spoofed() == 0 {
		t.Error("spoofer never fired")
	}
}

func TestClaimSpoofConvictedEndToEnd(t *testing.T) {
	// Node 9 claims node 8 — a real member of the network that is far out
	// of everyone's radio range (the paper's E5: an MPR "advertises a
	// distant node", creating a bogus path only the attacker provides).
	// Claiming one of the victim's direct neighbors instead would change
	// no MPR selection and correctly raise no alarm.
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofClaim, Target: addr.NodeAt(8)}
	w := newCluster(t, clusterOpts{
		spoofer: spoofer,
		seed:    2,
		extra:   map[addr.Node]geo.Point{addr.NodeAt(8): geo.Pt(2000, 0)},
	})
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(240 * time.Second)

	victim := w.Node(addr.NodeAt(1))
	v, ok := victim.Detector.Verdict(addr.NodeAt(9))
	if !ok || v != trust.Intruder {
		reports := victim.Detector.Reports()
		detail := "no reports"
		if n := len(reports); n > 0 {
			last := reports[n-1]
			detail = last.Verdict.String()
			t.Logf("last report: Detect=%.3f round=%d links=%v obs=%+v",
				last.Detect, last.Round, last.Links, last.Observations)
		}
		t.Fatalf("claim spoofer verdict = %v (ok=%v, investigations=%d, last=%s)",
			v, ok, victim.Detector.InvestigationCount(), detail)
	}
}

func TestOmitSpoofConvictedEndToEnd(t *testing.T) {
	// Node 9 drops its real neighbor 2 from its HELLOs (Expression 3).
	// The victim's omission signature correlates the 2-hop loss with
	// node 2's still-fresh advertisement of node 9, and node 2's
	// first-hand testimony ("I still hear 9") convicts.
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofOmit, Target: addr.NodeAt(2)}
	w := newCluster(t, clusterOpts{spoofer: spoofer, seed: 8})
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(240 * time.Second)

	victim := w.Node(addr.NodeAt(1))
	v, ok := victim.Detector.Verdict(addr.NodeAt(9))
	if !ok || v != trust.Intruder {
		t.Fatalf("omission spoofer verdict = %v (ok=%v, investigations=%d, alerts=%d)",
			v, ok, victim.Detector.InvestigationCount(), len(victim.Detector.Alerts()))
	}
}

func TestLiarsEndToEnd(t *testing.T) {
	// Phantom spoof with two colluding liars among the shared neighbors.
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	liars := map[addr.Node]*attack.Liar{
		addr.NodeAt(2): {Protect: addr.NewSet(addr.NodeAt(9))},
		addr.NodeAt(3): {Protect: addr.NewSet(addr.NodeAt(9))},
	}
	w := newCluster(t, clusterOpts{spoofer: spoofer, liars: liars, seed: 3})
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(300 * time.Second)

	victim := w.Node(addr.NodeAt(1))
	v, ok := victim.Detector.Verdict(addr.NodeAt(9))
	if !ok || v != trust.Intruder {
		reports := victim.Detector.Reports()
		detail := "no reports"
		if len(reports) > 0 {
			last := reports[len(reports)-1]
			detail = last.Verdict.String()
		}
		t.Fatalf("spoofer not convicted despite honest majority (verdict %v ok=%v; last=%s)", v, ok, detail)
	}
	// Liars must have lost trust relative to honest shared neighbors.
	liarTrust := victim.Trust.Get(addr.NodeAt(2))
	honestTrust := victim.Trust.Get(addr.NodeAt(5))
	if liarTrust >= honestTrust {
		t.Errorf("liar trust %v >= honest trust %v", liarTrust, honestTrust)
	}
	if liars[addr.NodeAt(2)].Lies() == 0 {
		t.Error("liar never lied; scenario broken")
	}
}

func TestBlackholeLowersTrustEndToEnd(t *testing.T) {
	// Line 2—1—3—4: node 3 is the victim's only MPR and black-holes every
	// forward. The victim's own TCs are never echoed; the relay-drop
	// signature fires repeatedly and node 3's trust collapses.
	w := NewNetwork(Config{
		Seed:  4,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 120}, PropDelay: time.Millisecond},
	})
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(2): geo.Pt(0, 0),
		addr.NodeAt(1): geo.Pt(100, 0),
		addr.NodeAt(3): geo.Pt(200, 0),
		addr.NodeAt(4): geo.Pt(300, 0),
	}
	known := addr.NewSet(addr.NodeAt(1), addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4))
	bh := &attack.BlackHole{}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: pos[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		w.AddNode(spec)
	}
	bh.Install(w.Node(addr.NodeAt(3)).Router)
	w.Start()
	w.RunFor(180 * time.Second)

	victim := w.Node(addr.NodeAt(1))
	if got := victim.Trust.Get(addr.NodeAt(3)); got >= 0.3 {
		t.Errorf("black-holing MPR trust = %v, want well below default", got)
	}
	if bh.Dropped() == 0 {
		t.Error("black hole never dropped; topology assumption broken")
	}
	// Control: the other neighbor keeps its standing.
	if got := victim.Trust.Get(addr.NodeAt(2)); got < 0.3 {
		t.Errorf("innocent neighbor punished: trust = %v", got)
	}
}

func TestControlPlaneAvoidsSuspect(t *testing.T) {
	// Diamond: investigator 1 reaches responder R(=4) via suspect 9 or via
	// honest 5. The suspect silently drops control traffic; with the
	// suspect on the Avoid list the exchange must still complete via 5.
	w := NewNetwork(Config{
		Seed:  5,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})
	pos := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(9): geo.Pt(80, 60),
		addr.NodeAt(5): geo.Pt(80, -60),
		addr.NodeAt(4): geo.Pt(160, 0),
	}
	known := addr.NewSet(addr.NodeAt(1), addr.NodeAt(9), addr.NodeAt(5), addr.NodeAt(4))
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: pos[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		if id == addr.NodeAt(9) {
			spec.DropControl = true
		}
		w.AddNode(spec)
	}
	w.Start()
	w.RunFor(30 * time.Second) // converge

	inv := w.Node(addr.NodeAt(1))
	req := detect.VerifyRequest{
		ID:           1,
		Investigator: addr.NodeAt(1),
		Responder:    addr.NodeAt(4),
		Suspect:      addr.NodeAt(9),
		Link:         addr.NodeAt(4),
		Avoid:        []addr.Node{addr.NodeAt(9)},
	}
	(&nodeTransport{node: inv}).SendVerify(req)
	w.RunFor(5 * time.Second)

	st := w.CtrlStats()
	if st.Delivered < 2 {
		t.Fatalf("control exchange incomplete around dropping suspect: %+v", st)
	}
}

func TestMovingNodeChangesTopology(t *testing.T) {
	// A node walking out of range must disappear from the victim's
	// neighborhood; the simulation samples mobility continuously.
	w := NewNetwork(Config{
		Seed:  6,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})
	w.AddNode(NodeSpec{ID: addr.NodeAt(1), Pos: mobility.Static{P: geo.Pt(0, 0)}})
	// Node 2 starts adjacent and walks away at 10 m/s after 10s.
	walker := mobility.Linear{Start: geo.Pt(50, 0), Velocity: geo.Vec{X: 10}, Delay: 10 * time.Second}
	w.AddNode(NodeSpec{ID: addr.NodeAt(2), Pos: walker})
	w.Start()
	w.RunFor(8 * time.Second)
	if !w.Node(addr.NodeAt(1)).Router.IsSymNeighbor(addr.NodeAt(2)) {
		t.Fatal("nodes never became neighbors")
	}
	w.RunFor(60 * time.Second) // walker is now ~700m away
	if w.Node(addr.NodeAt(1)).Router.IsSymNeighbor(addr.NodeAt(2)) {
		t.Fatal("neighbor relation survived departure")
	}
}

func TestDeterministicFullStack(t *testing.T) {
	run := func() uint64 {
		spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
		w := newCluster(t, clusterOpts{spoofer: spoofer, seed: 7})
		spoofer.Active = spoofAt(w, 20*time.Second)
		w.Start()
		w.RunFor(60 * time.Second)
		return w.Sched.Processed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed processed %d vs %d events", a, b)
	}
}
