package detect

import (
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/auditlog"
	"repro/internal/sim"
	"repro/internal/trust"
)

// fakeRouter is a scriptable RouterView.
type fakeRouter struct {
	self  addr.Node
	sym   addr.Set
	mprs  addr.Set
	cover map[addr.Node]addr.Set // x -> what x advertises
	hears addr.Set               // extra asymmetric receptions
}

var _ RouterView = (*fakeRouter)(nil)

func (f *fakeRouter) SymNeighbors(dst addr.Set) addr.Set { return append(dst[:0], f.sym...) }
func (f *fakeRouter) MPRs() addr.Set                     { return f.mprs.Clone() }
func (f *fakeRouter) Covers(via, dest addr.Node) bool    { return f.cover[via].Has(dest) }
func (f *fakeRouter) AdvertisedSym(dst addr.Set, x addr.Node) addr.Set {
	return append(dst[:0], f.cover[x]...)
}
func (f *fakeRouter) IsSymNeighbor(x addr.Node) bool { return f.sym.Has(x) }
func (f *fakeRouter) HearsFrom(x addr.Node) bool     { return f.sym.Has(x) || f.hears.Has(x) }

// memTransport answers requests from a table of responders after a delay.
type memTransport struct {
	sched      *sim.Scheduler
	responders map[addr.Node]*Responder
	detector   *Detector
	delay      time.Duration
	drop       addr.Set // responders whose requests are lost
	sent       []VerifyRequest
}

func (m *memTransport) SendVerify(req VerifyRequest) {
	req = ownRequest(req)
	m.sent = append(m.sent, req)
	if m.drop != nil && m.drop.Has(req.Responder) {
		return
	}
	r, ok := m.responders[req.Responder]
	if !ok {
		return // phantom or unreachable: no reply ever
	}
	rep := ownReply(r.Answer(req))
	m.sched.After(m.delay, func() { m.detector.HandleReply(rep) })
}

// ownRequest copies what req points to, which the detector reuses once
// SendVerify returns.
func ownRequest(req VerifyRequest) VerifyRequest {
	req.Avoid = slices.Clone(req.Avoid)
	if req.KnownHead != nil {
		h := *req.KnownHead
		req.KnownHead = &h
	}
	return req
}

// ownReply copies what rep points to, which the responder reuses in its
// next Answer.
func ownReply(rep VerifyReply) VerifyReply {
	if rep.Head != nil {
		h := *rep.Head
		rep.Head = &h
	}
	if rep.Consistency != nil {
		p := auditlog.Proof{Path: slices.Clone(rep.Consistency.Path)}
		rep.Consistency = &p
	}
	rep.Citations = slices.Clone(rep.Citations)
	for i := range rep.Citations {
		rep.Citations[i].Proof.Path = slices.Clone(rep.Citations[i].Proof.Path)
	}
	return rep
}

// The canonical test world (honest majority, as in the paper's §V):
//
//	observer:  node 1, neighbors {9, 2, 3, 4, 5, 6}
//	suspect:   node 9, real neighbors {1, 2, 3, 5, 6}
//	node 4:    observer's neighbor only (NOT adjacent to the suspect)
//
// suspectAdvertises is what node 9's HELLOs claim; liars answer falsely.
type scenario struct {
	sched    *sim.Scheduler
	obs      *fakeRouter
	tr       *memTransport
	det      *Detector
	store    *trust.Store
	logs     *auditlog.Buffer
	suspect  addr.Node
	observer addr.Node
}

// reports returns every round the detector has finalized so far.
func (sc *scenario) reports() []Report { return sc.det.Reports() }

func newScenario(t *testing.T, suspectAdvertises []addr.Node, liars map[addr.Node]*attack.Liar) *scenario {
	t.Helper()
	sched := sim.New(1)
	observer := addr.NodeAt(1)
	suspect := addr.NodeAt(9)

	// Ground truth: each node's real symmetric neighbors.
	truth := map[addr.Node]addr.Set{
		observer:       addr.NewSet(suspect, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)),
		suspect:        addr.NewSet(observer, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(5), addr.NodeAt(6)),
		addr.NodeAt(2): addr.NewSet(observer, suspect, addr.NodeAt(3), addr.NodeAt(5), addr.NodeAt(6)),
		addr.NodeAt(3): addr.NewSet(observer, suspect, addr.NodeAt(2), addr.NodeAt(5), addr.NodeAt(6)),
		addr.NodeAt(4): addr.NewSet(observer),
		addr.NodeAt(5): addr.NewSet(observer, suspect, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(6)),
		addr.NodeAt(6): addr.NewSet(observer, suspect, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(5)),
	}
	// What each node advertises: the truth, except the suspect.
	advert := func(x addr.Node) addr.Set {
		if x == suspect {
			return addr.NewSet(suspectAdvertises...)
		}
		return truth[x].Clone()
	}
	// A node's router view: its real neighbors, with cover = each
	// neighbor's advertisement.
	viewOf := func(x addr.Node) *fakeRouter {
		fr := &fakeRouter{self: x, sym: truth[x].Clone(), cover: make(map[addr.Node]addr.Set)}
		for _, nb := range truth[x] {
			fr.cover[nb] = advert(nb)
		}
		return fr
	}

	sc := &scenario{
		sched:    sched,
		suspect:  suspect,
		observer: observer,
		logs:     &auditlog.Buffer{},
	}
	sc.obs = viewOf(observer)
	sc.obs.mprs = addr.NewSet(suspect)

	responders := make(map[addr.Node]*Responder)
	for _, id := range []addr.Node{addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)} {
		responders[id] = &Responder{Self: id, Router: viewOf(id)}
	}
	for id, liar := range liars {
		if r, ok := responders[id]; ok {
			r.Liar = liar.Mutate
		}
	}

	sc.store = trust.NewStore(trust.DefaultParams())
	sc.tr = &memTransport{
		sched:      sched,
		responders: responders,
		delay:      10 * time.Millisecond,
	}
	sc.det = NewDetector(Config{
		Self: observer,
		KnownNodes: addr.NewSet(observer, suspect, addr.NodeAt(2), addr.NodeAt(3),
			addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)),
	}, sched, sc.obs, sc.logs, sc.tr, sc.store)
	sc.tr.detector = sc.det
	return sc
}

func honestAdvertisement() []addr.Node {
	return []addr.Node{addr.NodeAt(1), addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(5), addr.NodeAt(6)}
}

func TestHonestAdvertisementYieldsWellBehaving(t *testing.T) {
	sc := newScenario(t, honestAdvertisement(), nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(10 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	last := sc.reports()[len(sc.reports())-1]
	if last.Verdict == trust.Intruder {
		t.Errorf("honest suspect convicted: %+v", last)
	}
	if last.Detect < 0 {
		t.Errorf("Detect = %v for honest advertisement", last.Detect)
	}
}

func TestPhantomNeighborConvicted(t *testing.T) {
	// Expression 1: the suspect additionally advertises a node outside
	// the membership set.
	phantom := addr.NodeAt(99)
	sc := newScenario(t, append(honestAdvertisement(), phantom), nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(90 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	final := sc.reports()[len(sc.reports())-1]
	if final.Verdict != trust.Intruder {
		t.Fatalf("phantom spoofer verdict = %v (Detect %v, rounds %d)",
			final.Verdict, final.Detect, final.Round)
	}
	if got := sc.store.Get(sc.suspect); got >= 0.4 {
		t.Errorf("spoofer trust = %v, want < default", got)
	}
	// The detection value itself must be strongly negative.
	if final.Detect > -0.6 {
		t.Errorf("final Detect = %v, want <= -0.6", final.Detect)
	}
}

func TestClaimedNonNeighborConvicted(t *testing.T) {
	// Expression 2: the suspect claims node 4 (a real node that is not
	// its neighbor). The observer's own log and node 4's first-hand
	// denial are decisive.
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(90 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	final := sc.reports()[len(sc.reports())-1]
	if final.Verdict != trust.Intruder {
		t.Fatalf("claim spoofer verdict = %v (Detect %v, rounds %d)",
			final.Verdict, final.Detect, final.Round)
	}
}

func TestOmittedNeighborDetected(t *testing.T) {
	// Expression 3: the suspect's advertisement omits node 2, although
	// node 2 advertises the suspect.
	sc := newScenario(t, []addr.Node{addr.NodeAt(1), addr.NodeAt(3), addr.NodeAt(5), addr.NodeAt(6)}, nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(90 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	final := sc.reports()[len(sc.reports())-1]
	if final.Detect >= 0 {
		t.Errorf("omission not reflected: Detect = %v", final.Detect)
	}
	found := false
	for _, l := range final.Links {
		if l == addr.NodeAt(2) {
			found = true
		}
	}
	if !found {
		t.Errorf("omitted link not verified: %v", final.Links)
	}
	if final.Verdict != trust.Intruder {
		t.Errorf("omission verdict = %v", final.Verdict)
	}
}

func TestLiarsSlowButDontStopConviction(t *testing.T) {
	// The paper's §V scenario in miniature: the suspect claims a spoofed
	// link on node 4; two of five responders are colluding liars (40%,
	// the paper's hardest regime). Over rounds their trust collapses and
	// the honest evidence prevails.
	liars := map[addr.Node]*attack.Liar{
		addr.NodeAt(2): {Protect: addr.NewSet(addr.NodeAt(9))},
		addr.NodeAt(3): {Protect: addr.NewSet(addr.NodeAt(9))},
	}
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), liars)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(150 * time.Second)

	if len(sc.reports()) < 2 {
		t.Fatalf("expected multiple rounds with liars, got %d", len(sc.reports()))
	}
	final := sc.reports()[len(sc.reports())-1]
	first := sc.reports()[0]
	if final.Detect >= first.Detect {
		t.Errorf("Detect did not fall across rounds: %v -> %v", first.Detect, final.Detect)
	}
	if final.Verdict != trust.Intruder {
		t.Errorf("final verdict = %v (Detect %v)", final.Verdict, final.Detect)
	}
	liarTrust := sc.store.Get(addr.NodeAt(2))
	honestTrust := sc.store.Get(addr.NodeAt(4))
	if liarTrust >= honestTrust {
		t.Errorf("liar trust %v >= honest trust %v", liarTrust, honestTrust)
	}
}

func TestNonAnsweringNodeIsZeroEvidence(t *testing.T) {
	// Node 4's requests are lost in transit: it must appear in the
	// observations with evidence 0, diluting but not blocking detection.
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.tr.drop = addr.NewSet(addr.NodeAt(4))
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(30 * time.Second)

	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	rep := sc.reports()[0]
	zero := false
	for _, o := range rep.Observations {
		if o.Source == addr.NodeAt(4) && o.Evidence == 0 {
			zero = true
		}
	}
	if !zero {
		t.Errorf("silent node not recorded as e=0: %+v", rep.Observations)
	}
}

func TestAbstainersExcludedFromLaterRounds(t *testing.T) {
	// Node 4 abstains about the phantom link (it is neither the endpoint
	// nor a suspect neighbor); later rounds must not interrogate it again.
	phantom := addr.NodeAt(99)
	sc := newScenario(t, append(honestAdvertisement(), phantom), nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(30 * time.Second)

	if len(sc.reports()) < 2 {
		t.Skipf("only %d rounds ran", len(sc.reports()))
	}
	asked := make(map[int]int) // round index by request order -> count to node 4
	_ = asked
	count4 := 0
	for _, req := range sc.tr.sent {
		if req.Responder == addr.NodeAt(4) {
			count4++
		}
	}
	if count4 > 1 {
		t.Errorf("abstaining node 4 interrogated %d times", count4)
	}
}

func TestNoDuplicateInvestigationsWhileOpen(t *testing.T) {
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.det.OpenInvestigation(sc.suspect, "a")
	sc.det.OpenInvestigation(sc.suspect, "b") // first is still open (replies pending)
	if got := sc.det.InvestigationCount(); got != 1 {
		t.Errorf("investigations = %d, want 1", got)
	}
}

func TestSelfInvestigationIgnored(t *testing.T) {
	sc := newScenario(t, honestAdvertisement(), nil)
	sc.det.OpenInvestigation(sc.observer, "test")
	if got := sc.det.InvestigationCount(); got != 0 {
		t.Errorf("self-investigation opened: %d", got)
	}
}

func TestResponderFirstHand(t *testing.T) {
	r := &Responder{
		Self: addr.NodeAt(2),
		Router: &fakeRouter{
			self: addr.NodeAt(2),
			sym:  addr.NewSet(addr.NodeAt(9)),
		},
	}
	rep := r.Answer(VerifyRequest{ID: 1, Suspect: addr.NodeAt(9), Link: addr.NodeAt(2), Advertised: true})
	if !rep.Answered || !rep.FirstHand || !rep.LinkExists {
		t.Errorf("first-hand reply = %+v", rep)
	}
	rep = r.Answer(VerifyRequest{ID: 2, Suspect: addr.NodeAt(7), Link: addr.NodeAt(2), Advertised: true})
	if !rep.Answered || rep.LinkExists {
		t.Errorf("first-hand denial = %+v", rep)
	}
}

func TestResponderOmissionQuestion(t *testing.T) {
	// Advertised=false asks the directional question: the omitted endpoint
	// testifies whether it still hears the suspect.
	r := &Responder{
		Self: addr.NodeAt(2),
		Router: &fakeRouter{
			self:  addr.NodeAt(2),
			sym:   addr.NewSet(addr.NodeAt(3)),
			hears: addr.NewSet(addr.NodeAt(9)), // receives 9's HELLOs asymmetrically
		},
	}
	rep := r.Answer(VerifyRequest{ID: 1, Suspect: addr.NodeAt(9), Link: addr.NodeAt(2), Advertised: false})
	if !rep.Answered || !rep.FirstHand || !rep.LinkExists {
		t.Errorf("omission testimony = %+v", rep)
	}
	// Third parties abstain on omission questions.
	rep = r.Answer(VerifyRequest{ID: 2, Suspect: addr.NodeAt(9), Link: addr.NodeAt(3), Advertised: false})
	if rep.Answered {
		t.Errorf("third party should abstain on omission: %+v", rep)
	}
	// An endpoint that genuinely lost the link vindicates the suspect.
	r2 := &Responder{Self: addr.NodeAt(2), Router: &fakeRouter{self: addr.NodeAt(2), sym: addr.NewSet()}}
	rep = r2.Answer(VerifyRequest{ID: 3, Suspect: addr.NodeAt(9), Link: addr.NodeAt(2), Advertised: false})
	if !rep.Answered || rep.LinkExists {
		t.Errorf("vanished-link testimony = %+v", rep)
	}
}

func TestResponderSecondHand(t *testing.T) {
	// Node 2 hears node 3's HELLOs; node 3 advertises node 9.
	r := &Responder{
		Self: addr.NodeAt(2),
		Router: &fakeRouter{
			self:  addr.NodeAt(2),
			sym:   addr.NewSet(addr.NodeAt(3)),
			cover: map[addr.Node]addr.Set{addr.NodeAt(3): addr.NewSet(addr.NodeAt(9))},
		},
	}
	rep := r.Answer(VerifyRequest{ID: 1, Suspect: addr.NodeAt(9), Link: addr.NodeAt(3), Advertised: true})
	if !rep.Answered || rep.FirstHand || !rep.LinkExists {
		t.Errorf("second-hand reply = %+v", rep)
	}
	// Unknown link endpoint, not a suspect neighbor: abstain.
	rep = r.Answer(VerifyRequest{ID: 2, Suspect: addr.NodeAt(9), Link: addr.NodeAt(50), Advertised: true})
	if rep.Answered {
		t.Errorf("abstention expected: %+v", rep)
	}
}

func TestResponderSuspectNeighborDeniesUnknownEndpoint(t *testing.T) {
	// Node 2 is the suspect's neighbor and has never heard of node 77:
	// it denies the claimed link (the phantom denial path).
	r := &Responder{
		Self: addr.NodeAt(2),
		Router: &fakeRouter{
			self:  addr.NodeAt(2),
			sym:   addr.NewSet(addr.NodeAt(9), addr.NodeAt(3)),
			cover: map[addr.Node]addr.Set{addr.NodeAt(3): addr.NewSet(addr.NodeAt(2))},
		},
	}
	rep := r.Answer(VerifyRequest{ID: 1, Suspect: addr.NodeAt(9), Link: addr.NodeAt(77), Advertised: true})
	if !rep.Answered || rep.LinkExists {
		t.Errorf("phantom denial = %+v", rep)
	}
	// But if some OTHER neighbor advertises node 77, it abstains —
	// existence elsewhere says nothing about the link.
	r.Router.(*fakeRouter).cover[addr.NodeAt(3)] = addr.NewSet(addr.NodeAt(77))
	rep = r.Answer(VerifyRequest{ID: 2, Suspect: addr.NodeAt(9), Link: addr.NodeAt(77), Advertised: true})
	if rep.Answered {
		t.Errorf("expected abstention when endpoint is known elsewhere: %+v", rep)
	}
}

func TestScanPicksUpLoggedMPRChange(t *testing.T) {
	sc := newScenario(t, honestAdvertisement(), nil)
	sc.logs.Append(auditlog.Record{
		T: time.Second, Node: sc.observer, Kind: auditlog.KindMPRSet,
		Fields: []auditlog.Field{
			auditlog.FNodes("added", []addr.Node{sc.suspect}),
			auditlog.FNodes("removed", []addr.Node{addr.NodeAt(2)}),
			auditlog.FNodes("mprs", []addr.Node{sc.suspect}),
		},
	})
	sc.det.Scan()
	if got := sc.det.InvestigationCount(); got != 1 {
		t.Fatalf("investigations after E1 = %d, want 1", got)
	}
	if len(sc.det.Alerts()) == 0 {
		t.Fatal("no alert recorded")
	}
	sc.sched.RunUntil(30 * time.Second)
	if _, ok := sc.det.Verdict(sc.suspect); !ok {
		t.Error("no verdict recorded after investigation")
	}
}

func TestStartStopScanTicker(t *testing.T) {
	sc := newScenario(t, honestAdvertisement(), nil)
	sc.det.Start()
	sc.det.Start() // idempotent
	sc.sched.RunUntil(5 * time.Second)
	sc.det.Stop()
	sc.det.Stop() // idempotent
	processedAt := sc.sched.Processed()
	sc.sched.RunUntil(20 * time.Second)
	if sc.sched.Processed() != processedAt {
		t.Error("detector kept scheduling after Stop")
	}
}
