// Package detect implements the paper's distributed, log- and
// signature-based intrusion detector (§III) secured by the trust system
// (§IV):
//
//  1. The detector periodically parses its own node's audit log (never the
//     routing internals) and feeds the events to the signature engine.
//  2. Signature alerts — chiefly E1, "an MPR was replaced", and E2, "a
//     selected MPR misbehaves" — open a cooperative investigation
//     (Algorithm 1) about the suspicious MPR.
//  3. The investigation determines the suspect's advertised links that
//     disagree with the local view, interrogates the nodes able to confirm
//     or deny them (first-hand answers privileged, requests routed around
//     the suspect), and aggregates the answers with Eq. 8.
//  4. The confidence interval (Eq. 9) and decision rule (Eq. 10) yield a
//     verdict: intruder, well-behaving, or unrecognized (investigate
//     again). Verdicts feed back into the trust store (Eq. 5).
package detect

import (
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/logevent"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trust"
)

// RouterView is the read-only access a detector has to its own routing
// daemon's state — only for answering questions about the node itself and
// for choosing whom to interrogate; attack evidence always comes from logs
// and replies.
type RouterView interface {
	SymNeighbors() addr.Set
	TwoHopNeighbors() addr.Set
	MPRs() addr.Set
	// CoverOf returns the neighbors that via advertises as its own
	// symmetric neighbors.
	CoverOf(via addr.Node) addr.Set
	// AdvertisedSym returns the symmetric-neighbor set x most recently
	// advertised in a HELLO.
	AdvertisedSym(x addr.Node) addr.Set
	IsSymNeighbor(x addr.Node) bool
	// HearsFrom reports whether x's transmissions are currently received
	// at all (symmetric or asymmetric link) — the directional primitive
	// behind omission (Expression 3) verification.
	HearsFrom(x addr.Node) bool
}

// VerifyRequest asks Responder for its view of the link Suspect—Link.
type VerifyRequest struct {
	ID           uint64
	Investigator addr.Node
	Responder    addr.Node
	Suspect      addr.Node
	Link         addr.Node
	// Advertised is the suspect's claim under verification: true = the
	// suspect advertises the link (phantom/claim variants), false = the
	// suspect omits a link its counterpart maintains (omission variant).
	// It selects which question the responder answers.
	Advertised bool
	// Avoid lists nodes the request and reply must route around — the
	// suspect and any already-distrusted nodes (Algorithm 1's requirement
	// that the suspect cannot drop or forge the exchange).
	Avoid []addr.Node
	// KnownHead is the responder's latest evidence-log tree head the
	// investigator learned through gossip, so the responder can attach a
	// consistency proof from it (evidence.go). Nil outside the evidence
	// plane.
	KnownHead *auditlog.TreeHead
}

// VerifyReply carries a responder's answer.
type VerifyReply struct {
	ID        uint64
	Responder addr.Node
	Suspect   addr.Node
	Link      addr.Node
	// Answered is false when the responder has no basis to judge the
	// link; it maps to evidence 0, like a timeout.
	Answered bool
	// LinkExists is the responder's view of whether the link is real.
	LinkExists bool
	// FirstHand marks an answer from the link's own endpoint (property 5:
	// first-hand evidence is privileged).
	FirstHand bool
	// Head is the responder's current evidence-log tree head;
	// Consistency links it to the request's KnownHead, and Citations are
	// the sealed records grounding the answer (evidence.go). All empty
	// outside the evidence plane.
	Head        *auditlog.TreeHead
	Consistency *auditlog.Proof
	Citations   []Citation
}

// Transport routes investigation traffic; the core package implements it
// over the simulated network, and tests implement it in memory.
type Transport interface {
	// SendVerify delivers req to req.Responder. Replies come back through
	// Detector.HandleReply; lost or undeliverable requests simply never
	// produce one.
	SendVerify(req VerifyRequest)
}

// Responder answers link-verification requests from a node's own routing
// state. A Liar mutation (attack.Liar.Mutate) may be installed to model
// the paper's colluders.
type Responder struct {
	Self   addr.Node
	Router RouterView
	// Liar, when set, rewrites (linkExists, answered) before the reply is
	// sent.
	Liar func(suspect addr.Node, linkExists, answered bool) (bool, bool)
	// Evidence, when set, attaches the sealed-log tree head and record
	// citations to every reply (the evidence plane, DESIGN.md §8). It
	// runs after Liar — a liar cites its own, possibly rewritten, log.
	Evidence *EvidenceProvider
}

// Answer produces this node's reply to a verification request.
func (r *Responder) Answer(req VerifyRequest) VerifyReply {
	rep := VerifyReply{
		ID:        req.ID,
		Responder: r.Self,
		Suspect:   req.Suspect,
		Link:      req.Link,
	}
	if !req.Advertised {
		// Omission verification is directional: only the omitted endpoint
		// can testify that it still receives the suspect's HELLOs while
		// the suspect claims not to hear it. Third parties only see stale
		// protocol state and must abstain.
		if req.Link == r.Self {
			rep.Answered = true
			rep.FirstHand = true
			rep.LinkExists = r.Router.HearsFrom(req.Suspect)
		}
		if r.Liar != nil {
			rep.LinkExists, rep.Answered = r.Liar(req.Suspect, rep.LinkExists, rep.Answered)
		}
		if r.Evidence != nil {
			r.Evidence.Attach(req, &rep)
		}
		return rep
	}
	switch {
	case req.Link == r.Self:
		// First-hand: is the suspect really my symmetric neighbor?
		rep.Answered = true
		rep.FirstHand = true
		rep.LinkExists = r.Router.IsSymNeighbor(req.Suspect)
	case r.Router.IsSymNeighbor(req.Link):
		// I hear Link's own HELLOs: does Link advertise the suspect? This
		// judges the claimed link from Link's side, not the suspect's —
		// the non-circular direction.
		rep.Answered = true
		rep.LinkExists = r.Router.CoverOf(req.Link).Has(req.Suspect)
	case r.Router.IsSymNeighbor(req.Suspect):
		// I am the suspect's neighbor. If the claimed endpoint really were
		// adjacent to the suspect I would at least know of it — as my own
		// neighbor (handled above) or advertised by a neighbor OTHER than
		// the suspect (the suspect's own claims would be circular
		// corroboration). Knowing the endpoint only tells me it exists
		// somewhere, not whether the link is real: abstain. Not knowing it
		// at all is a denial — no such node stands in the suspect's
		// vicinity.
		known := false
		for via := range r.Router.SymNeighbors() {
			if via != req.Suspect && r.Router.CoverOf(via).Has(req.Link) {
				known = true
				break
			}
		}
		if !known {
			rep.Answered = true
			rep.LinkExists = false
		}
	default:
		// No basis for judgment.
		rep.Answered = false
	}
	if r.Liar != nil {
		rep.LinkExists, rep.Answered = r.Liar(req.Suspect, rep.LinkExists, rep.Answered)
	}
	if r.Evidence != nil {
		r.Evidence.Attach(req, &rep)
	}
	return rep
}

// Report is the outcome of one investigation round.
type Report struct {
	At       time.Duration
	Suspect  addr.Node
	Trigger  string // signature rule that opened the investigation
	Round    int
	Detect   float64
	Interval trust.Interval
	Verdict  trust.Verdict
	// Gravity is the most serious evidence class behind the round
	// (property 2/3 of §IV-A).
	Gravity trust.Gravity
	// Observations are the per-responder evidences that produced Detect.
	Observations []trust.Observation
	// Links are the suspect links that were verified.
	Links []addr.Node
}

// Config parameterizes a Detector.
type Config struct {
	Self addr.Node

	// ScanPeriod is how often the audit log is parsed (default 1s).
	ScanPeriod time.Duration
	// AnswerTimeout bounds how long an investigation round waits for
	// replies (default 3s).
	AnswerTimeout time.Duration
	// MaxRounds bounds re-investigation of an unrecognized suspect
	// (default 25, the paper's experiment length).
	MaxRounds int
	// MaxResponders caps interrogated nodes per link (default 8).
	MaxResponders int
	// KnownNodes, when non-nil, is the network membership (the paper's
	// set N in Expression 1); advertising a node outside it is immediate
	// first-hand evidence of spoofing.
	KnownNodes addr.Set
	// OnReport, when set, observes every finalized investigation round.
	OnReport func(Report)
	// Heads, when set, enables the evidence plane: replies are verified
	// against gossiped tree heads (evidence.go), proof-backed testimony
	// is boosted, and proof failures convict the responder.
	Heads HeadSource
	// ProvenWeight is the Eq. 8 trust multiplier for proof-backed
	// testimony (default 2).
	ProvenWeight float64
	// Bootstrap, when set, supplies propagated trust for strangers (the
	// reputation plane, DESIGN.md §9): when an observation's source has
	// no explicit direct-trust value, the detector seeds one from the
	// bootstrapper (Eq. 6/7 over gossiped recommendations) instead of
	// weighing the testimony from the cold default.
	Bootstrap TrustBootstrapper
	// Tracer, when non-nil, receives detect-plane run-trace events
	// (DESIGN.md §13): one evidence event per observation of a finalized
	// round, one verdict event per round, one forged event per
	// forged-evidence conviction. Pure observation.
	Tracer *trace.Tracer
}

// TrustBootstrapper supplies second-hand effective trust in a node the
// detector has no direct history with. The reputation ledger
// (internal/reputation) implements it over gossiped trust vectors; the
// boolean is false when no usable recommendation exists.
type TrustBootstrapper interface {
	BootstrapTrust(n addr.Node) (float64, bool)
}

func (c Config) withDefaults() Config {
	if c.ScanPeriod <= 0 {
		c.ScanPeriod = time.Second
	}
	if c.AnswerTimeout <= 0 {
		c.AnswerTimeout = 3 * time.Second
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 25
	}
	if c.MaxResponders <= 0 {
		c.MaxResponders = 8
	}
	return c
}

type investigation struct {
	suspect addr.Node
	trigger string
	round   int
	links   []addr.Node
	adv     map[addr.Node]bool // link endpoint -> suspect advertised it
	pending map[uint64]VerifyRequest
	replies []VerifyReply
	weights []float64 // per-reply Eq. 8 weight (proof-backed testimony > 1)
	local   []trust.Observation
	// gravity is the most serious evidence class observed this round
	// (property 2/3 of §IV-A); it scales the verdict's trust impact.
	gravity  trust.Gravity
	deadline *sim.Event
}

// suspectCell is the per-suspect detector state. Cells live in a dense
// slab indexed by the run's node index (shared with the trust store)
// instead of seven parallel map[addr.Node] tables — every alert, reply
// and finalize resolves its suspect with one slot lookup.
type suspectCell struct {
	open       *investigation
	verdict    trust.Verdict
	hasVerdict bool
	samples    []float64         // cumulative CI evidence
	noInfo     addr.Set          // responders that abstained
	timeouts   map[addr.Node]int // responder -> missed rounds
	hintLinks  addr.Set          // omitted endpoints from alerts
	lastRound  int               // highest finalized round
}

// Detector is one node's intrusion detector.
type Detector struct {
	cfg       Config
	sched     *sim.Scheduler
	router    RouterView
	cursor    *auditlog.Cursor
	engine    *signature.Engine
	store     *trust.Store
	transport Transport

	nextReqID      uint64
	ix             *addr.Index   // the trust store's node index
	cells          []suspectCell // per-suspect state, by index slot
	tainted        addr.Set      // nodes caught forging evidence
	reports        []Report
	alerts         []signature.Alert
	parseSkipped   int
	lateReplies    uint64
	proofFailures  uint64
	ticker         *sim.Ticker
	investigations uint64

	// Scan scratch, reused across ticks.
	evScratch []logevent.Event
}

// cell returns suspect n's state, assigning an index slot on first
// contact.
func (d *Detector) cell(n addr.Node) *suspectCell {
	slot := d.ix.Assign(n)
	if slot >= len(d.cells) {
		d.cells = append(d.cells, make([]suspectCell, slot+1-len(d.cells))...)
	}
	return &d.cells[slot]
}

// peek returns n's cell when one may exist, without growing the slab.
// The zero cell is never observable through it: callers treat nil as
// "no recorded state", matching a missing map entry.
func (d *Detector) peek(n addr.Node) *suspectCell {
	if slot, ok := d.ix.Slot(n); ok && slot < len(d.cells) {
		return &d.cells[slot]
	}
	return nil
}

// maxCISamples bounds the cumulative evidence kept per suspect for the
// confidence interval; old samples age out, matching the freshness
// property 4 of §IV-A.
const maxCISamples = 256

// NewDetector wires a detector to its node's log buffer, router view,
// trust store and transport. The signature engine is built from the
// default catalog.
func NewDetector(
	cfg Config,
	sched *sim.Scheduler,
	router RouterView,
	logs *auditlog.Buffer,
	transport Transport,
	store *trust.Store,
) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:       cfg,
		sched:     sched,
		router:    router,
		cursor:    auditlog.NewCursor(logs),
		engine:    signature.NewEngine(signature.Catalog(signature.DefaultCatalogConfig(cfg.Self))...),
		store:     store,
		transport: transport,
		ix:        store.Index(),
		tainted:   make(addr.Set),
	}
}

// Start begins periodic log scanning.
func (d *Detector) Start() {
	if d.ticker == nil {
		d.ticker = d.sched.Every(d.cfg.ScanPeriod, d.cfg.ScanPeriod, 0.1, d.Scan)
	}
}

// Stop halts periodic scanning.
func (d *Detector) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// TrustStore exposes the detector's trust relations.
func (d *Detector) TrustStore() *trust.Store { return d.store }

// Reports returns every finalized investigation round so far.
func (d *Detector) Reports() []Report {
	out := make([]Report, len(d.reports))
	copy(out, d.reports)
	return out
}

// Alerts returns every signature alert raised so far.
func (d *Detector) Alerts() []signature.Alert {
	out := make([]signature.Alert, len(d.alerts))
	copy(out, d.alerts)
	return out
}

// Verdict returns the most recent verdict about n.
func (d *Detector) Verdict(n addr.Node) (trust.Verdict, bool) {
	if c := d.peek(n); c != nil && c.hasVerdict {
		return c.verdict, true
	}
	var none trust.Verdict
	return none, false
}

// InvestigationCount returns how many investigation rounds were opened.
func (d *Detector) InvestigationCount() uint64 { return d.investigations }

// LateReplies returns how many replies arrived after their investigation
// round was finalized (or duplicated an already-counted answer) and were
// dropped.
func (d *Detector) LateReplies() uint64 { return d.lateReplies }

// ProofFailures returns how many replies were discarded because their
// evidence proofs failed verification.
func (d *Detector) ProofFailures() uint64 { return d.proofFailures }

// Scan reads the new audit records, runs the signature engine, and opens
// investigations for fresh alerts.
func (d *Detector) Scan() {
	// An unparseable line is a substrate bug, not an attack: it is
	// counted and skipped rather than fatal.
	events := d.evScratch[:0]
	for l, ok := d.cursor.Next(); ok; l, ok = d.cursor.Next() {
		ev, err := logevent.Parse(l)
		if err != nil {
			d.parseSkipped++
			continue
		}
		events = append(events, ev)
	}
	d.evScratch = events
	alerts := d.engine.Feed(events, d.sched.Now())
	d.alerts = append(d.alerts, alerts...)
	for _, a := range alerts {
		d.handleAlert(a)
	}
}

func (d *Detector) handleAlert(a signature.Alert) {
	switch a.Rule {
	case signature.RuleMPRReplaced, signature.RuleMPRAdded:
		d.OpenInvestigation(a.Subject, a.Rule)
	case signature.RuleOmission:
		// Remember which endpoint the suspect dropped, so later rounds can
		// keep verifying it after the protocol state has expired.
		for _, ev := range a.Events {
			if td, ok := ev.(*logevent.TwoHopDown); ok {
				c := d.cell(a.Subject)
				if c.hintLinks == nil {
					c.hintLinks = make(addr.Set)
				}
				c.hintLinks.Add(td.TwoHop)
			}
		}
		d.OpenInvestigation(a.Subject, a.Rule)
	case signature.RuleDroppedRelay:
		// The absence alert names ourselves; the silent relay is among our
		// current MPRs. E2 counts the drop itself as misbehavior: with a
		// single MPR the attribution is certain (full-gravity evidence);
		// with several, the blame is split.
		mprs := d.router.MPRs().Sorted()
		for _, m := range mprs {
			d.store.Update(m, []trust.Evidence{{Value: -1.0 / float64(len(mprs))}})
			d.OpenInvestigation(m, a.Rule)
		}
	case signature.RuleStorm, signature.RuleReplay, signature.RuleFlappingLink:
		// Direct evidence of misbehavior by the subject: harmful
		// first-hand evidence without a cooperative round.
		d.store.Update(a.Subject, []trust.Evidence{{Value: -1, Gravity: trust.GravityHigh}})
		d.OpenInvestigation(a.Subject, a.Rule)
	}
}

// OpenInvestigation starts (or continues) a cooperative investigation of
// suspect, per Algorithm 1. It is exported so tests and higher layers can
// trigger investigations directly.
func (d *Detector) OpenInvestigation(suspect addr.Node, trigger string) {
	if suspect == d.cfg.Self {
		return
	}
	c := d.cell(suspect)
	if c.open != nil {
		return // busy
	}
	if d.tainted.Has(suspect) {
		return // convicted by forged evidence; nothing left to establish
	}
	if c.hasVerdict && c.verdict != trust.Unrecognized {
		return // settled
	}
	inv := &investigation{
		suspect: suspect,
		trigger: trigger,
		round:   c.lastRound + 1,
		adv:     make(map[addr.Node]bool),
		pending: make(map[uint64]VerifyRequest),
	}
	if inv.round > d.cfg.MaxRounds {
		return
	}
	d.investigations++

	links := d.suspiciousLinks(suspect, inv)
	if len(links) == 0 {
		// Nothing concrete to verify: the suspect's advertisement matches
		// the local view entirely. Record a clean round.
		c.open = inv
		d.finalize(inv)
		return
	}
	inv.links = links
	c.open = inv

	avoid := []addr.Node{suspect}
	for _, link := range links {
		for _, responder := range d.respondersFor(suspect, link) {
			d.nextReqID++
			req := VerifyRequest{
				ID:           d.nextReqID,
				Investigator: d.cfg.Self,
				Responder:    responder,
				Suspect:      suspect,
				Link:         link,
				Advertised:   inv.adv[link],
				Avoid:        avoid,
			}
			if d.cfg.Heads != nil {
				if h, ok := d.cfg.Heads.LatestHead(responder); ok {
					head := h
					req.KnownHead = &head
				}
			}
			inv.pending[req.ID] = req
			d.transport.SendVerify(req)
		}
	}
	inv.deadline = d.sched.After(d.cfg.AnswerTimeout, func() { d.finalize(inv) })
}

// trustOf resolves the trust weight an observation from n carries in
// Eq. 8. First-hand history always wins; for a stranger (or a node
// known only through an earlier seed) the reputation bootstrapper is
// consulted (Eq. 6/7 over current gossip) and a successful bootstrap is
// seeded into the store via SetSeeded, so subsequent direct evidence
// (applyVerdict's Eq. 5 updates) evolves the propagated prior instead
// of snapping back to the cold default. The seed is re-derived while no
// first-hand evidence exists — recommendation-trust shifts (a framer's
// R collapsing) keep correcting the opinion — and it never feeds back
// into the node's own gossip or deviation baseline (trust.SetSeeded).
// Without a bootstrapper this is exactly the old store.Get.
func (d *Detector) trustOf(n addr.Node) float64 {
	if d.cfg.Bootstrap == nil || d.store.FirstHand(n) {
		return d.store.Get(n)
	}
	if v, ok := d.cfg.Bootstrap.BootstrapTrust(n); ok {
		d.store.SetSeeded(n, v)
		return d.store.Get(n) // the clamped, stored value
	}
	return d.store.Get(n)
}

// ReportDishonestRecommender records a reputation-plane flag about node:
// its gossiped trust vectors repeatedly failed the local deviation test.
// This is statistical evidence, not proof — an honest node whose trust
// landscape genuinely diverges (it met different liars, converged at a
// different rate) can trip it — so the hit is GravityLow and never a
// conviction (contrast ReportForgedEvidence, which is cryptographic and
// final). The recommendation-trust ledger, not this penalty, is what
// actually defangs a dishonest recommender.
func (d *Detector) ReportDishonestRecommender(node addr.Node, detail string) {
	if node == d.cfg.Self {
		return
	}
	d.store.Update(node, []trust.Evidence{{Value: -1, Gravity: trust.GravityLow}})
	d.alerts = append(d.alerts, signature.Alert{
		Rule:    signature.RuleDishonestRecommender,
		Subject: node,
		At:      d.sched.Now(),
		Detail:  detail,
	})
}

// roundOf returns the highest finalized round about suspect. It reads
// the per-suspect cell maintained by finalize — scanning d.reports here
// made every new investigation O(total reports ever filed), which turned
// long multi-suspect runs quadratic (BenchmarkRoundOf pins the fix).
func (d *Detector) roundOf(suspect addr.Node) int {
	if c := d.peek(suspect); c != nil {
		return c.lastRound
	}
	return 0
}

// suspiciousLinks compares the suspect's advertised symmetric neighborhood
// NS'(I) against the local view and returns the link endpoints worth
// verifying, covering all three spoofing variants:
//
//   - advertised but unconfirmed endpoints (phantom / claimed — Expr. 1-2)
//   - endpoints that advertise the suspect while the suspect omits them
//     (Expr. 3)
//
// Membership violations (endpoint outside KnownNodes) become immediate
// local first-hand evidence.
func (d *Detector) suspiciousLinks(suspect addr.Node, inv *investigation) []addr.Node {
	advertised := d.router.AdvertisedSym(suspect)
	sym := d.router.SymNeighbors()

	links := make(addr.Set)
	localEvidence := func(g trust.Gravity) {
		// First-hand local observation (property 5): the investigator's
		// own log already contradicts the suspect's advertisement.
		inv.local = append(inv.local, trust.Observation{
			Source: d.cfg.Self, Trust: 1, Evidence: -1,
		})
		if g > inv.gravity {
			inv.gravity = g
		}
	}
	for x := range advertised {
		if x == d.cfg.Self || x == suspect {
			continue
		}
		inv.adv[x] = true
		if d.cfg.KnownNodes != nil && !d.cfg.KnownNodes.Has(x) {
			// Expression 1's membership test: the advertised endpoint is
			// outside the network — the most imminent intrusion sign
			// (property 3). Still ask others for corroboration.
			localEvidence(trust.GravityCritical)
			links.Add(x)
			continue
		}
		if sym.Has(x) {
			if d.router.CoverOf(x).Has(suspect) {
				// Confirmed from the other side: x's own HELLOs list the
				// suspect. Nothing to verify.
				continue
			}
			// I hear x's HELLOs myself and they do NOT list the suspect —
			// first-hand contradiction (Expression 2, claimed
			// non-neighbor).
			localEvidence(trust.GravityHigh)
		}
		links.Add(x)
	}
	// Omission (Expression 3): a neighbor of mine advertises the suspect,
	// but the suspect's advertisement omits it — again a first-hand
	// contradiction from my own log.
	for x := range sym {
		if x == suspect || advertised.Has(x) {
			continue
		}
		if d.router.CoverOf(x).Has(suspect) {
			inv.adv[x] = false
			localEvidence(trust.GravityHigh)
			links.Add(x)
		}
	}
	// Hinted omissions (from the omission signature): keep verifying the
	// dropped endpoint even after its protocol state expired. No local
	// evidence here — once the live contradiction is gone, only the
	// endpoint's own testimony counts.
	if c := d.peek(suspect); c != nil {
		for x := range c.hintLinks {
			if x != d.cfg.Self && !advertised.Has(x) && !links.Has(x) {
				inv.adv[x] = false
				links.Add(x)
			}
		}
	}
	return links.Sorted()
}

// respondersFor selects whom to interrogate about the link suspect—link:
// the link's own endpoint first (first-hand), then shared neighbors that
// can hear the endpoint's HELLOs. The suspect itself is never asked.
func (d *Detector) respondersFor(suspect, link addr.Node) []addr.Node {
	resp := make(addr.Set)
	// Ask the endpoint itself unless membership knowledge says it cannot
	// exist (a phantom has nobody to answer; the timeout produces e=0 and
	// the membership check produced local evidence already).
	if link != d.cfg.Self && (d.cfg.KnownNodes == nil || d.cfg.KnownNodes.Has(link)) {
		resp.Add(link)
	}
	for x := range d.router.SymNeighbors() {
		if x != suspect && x != d.cfg.Self {
			resp.Add(x)
		}
	}
	resp.Remove(suspect)
	resp.Remove(d.cfg.Self)
	// Skip responders that declared having no basis to judge this suspect
	// in an earlier round (Algorithm 1 moves on from unhelpful nodes).
	if c := d.peek(suspect); c != nil {
		for x := range c.noInfo {
			resp.Remove(x)
		}
	}
	// Evidence forgers are out of the witness pool for good.
	for x := range d.tainted {
		resp.Remove(x)
	}
	out := resp.Sorted()
	if len(out) > d.cfg.MaxResponders {
		out = out[:d.cfg.MaxResponders]
	}
	return out
}

// HandleReply ingests one verification reply; the transport calls it when
// a reply reaches the investigator.
//
// Replies that miss their round are dropped and counted, never merged
// into a newer investigation: once finalize ran, its *investigation is
// dead state, and a late reply must not resurrect it (or leak into the
// next round's aggregate through a recycled suspect entry — request IDs
// are globally unique exactly so this check is cheap).
func (d *Detector) HandleReply(rep VerifyReply) {
	c := d.peek(rep.Suspect)
	if c == nil || c.open == nil {
		// No open investigation: the round finalized (timeout or early
		// completion) before this reply arrived.
		d.lateReplies++
		return
	}
	inv := c.open
	if _, expected := inv.pending[rep.ID]; !expected {
		// Duplicate delivery, or a reply to a previous round's request.
		d.lateReplies++
		return
	}
	delete(inv.pending, rep.ID)
	weight := 0.0 // 0 = plain testimony (trust.Observation zero value)
	if d.cfg.Heads != nil {
		contradicts := rep.Answered && rep.LinkExists != inv.adv[rep.Link]
		switch d.verifyEvidence(rep, contradicts) {
		case evidenceProven:
			weight = d.provenWeight()
		case evidenceForged:
			// The reply contradicts the responder's own sealed history:
			// discard the testimony and convict the forger on first-hand
			// cryptographic evidence. (This may grow the cell slab — c is
			// stale past this point; inv is heap state and stays valid.)
			d.proofFailures++
			d.ReportForgedEvidence(rep.Responder, "reply evidence failed proof verification")
			if len(inv.pending) == 0 && inv.deadline != nil {
				inv.deadline.Cancel()
				d.finalize(inv)
			}
			return
		}
	}
	inv.replies = append(inv.replies, rep)
	inv.weights = append(inv.weights, weight)
	if !rep.Answered {
		if c.noInfo == nil {
			c.noInfo = make(addr.Set)
		}
		c.noInfo.Add(rep.Responder)
	}
	if len(inv.pending) == 0 && inv.deadline != nil {
		inv.deadline.Cancel()
		d.finalize(inv)
	}
}

// ReportForgedEvidence convicts a node caught with tampered evidence: a
// gossiped tree head inconsistent with its history, or a citation whose
// proof failed. Unlike testimony-based verdicts this is first-hand and
// cryptographic — no confidence interval applies (Eq. 10 degenerates:
// the evidence is exact). The core package also calls it when the
// tree-head flood itself exposes a rewrite.
func (d *Detector) ReportForgedEvidence(node addr.Node, detail string) {
	if node == d.cfg.Self || d.tainted.Has(node) {
		return
	}
	d.tainted.Add(node)
	d.store.Update(node, []trust.Evidence{{Value: -1, Gravity: trust.GravityCritical}})
	d.alerts = append(d.alerts, signature.Alert{
		Rule:    signature.RuleEvidenceForged,
		Subject: node,
		At:      d.sched.Now(),
		Detail:  detail,
	})
	c := d.cell(node)
	round := c.lastRound + 1
	report := Report{
		At:      d.sched.Now(),
		Suspect: node,
		Trigger: signature.RuleEvidenceForged,
		Round:   round,
		Detect:  -1,
		Verdict: trust.Intruder,
		Gravity: trust.GravityCritical,
		Observations: []trust.Observation{
			{Source: d.cfg.Self, Trust: 1, Evidence: -1},
		},
	}
	d.reports = append(d.reports, report)
	c.lastRound = round
	c.verdict = trust.Intruder
	c.hasVerdict = true
	if d.cfg.Tracer.On() {
		d.cfg.Tracer.Emit(trace.Event{Plane: trace.PlaneDetect, Kind: trace.KindForged,
			Node: d.cfg.Self.String(), Peer: node.String(), Msg: detail, V1: float64(round)})
	}
	if d.cfg.OnReport != nil {
		d.cfg.OnReport(report)
	}
}

// finalize closes an investigation round: aggregate evidence (Eq. 8),
// compute the confidence interval (Eq. 9), decide (Eq. 10), update trust
// (Eq. 5) and publish the report.
func (d *Detector) finalize(inv *investigation) {
	c := d.cell(inv.suspect)
	if c.open != inv {
		return // already finalized
	}
	c.open = nil

	obs := make([]trust.Observation, 0, len(inv.replies)+len(inv.pending)+len(inv.local))
	obs = append(obs, inv.local...)
	for ri, rep := range inv.replies {
		e := 0.0
		if rep.Answered {
			// The suspect advertised the link (adv=true) or omitted it
			// (adv=false); the responder confirms spoofing when its view
			// contradicts the advertisement.
			if rep.LinkExists == inv.adv[rep.Link] {
				e = 1
			} else {
				e = -1
			}
		}
		obs = append(obs, trust.Observation{
			Source:   rep.Responder,
			Trust:    d.trustOf(rep.Responder),
			Evidence: e,
			Weight:   inv.weights[ri],
		})
	}
	// Unanswered requests: evidence 0, but the silent node still dilutes
	// the aggregate (its trust appears in the normalization). A node that
	// never answers is "tagged as not verified" (§III-C) and dropped from
	// later rounds, so persistent silence cannot stall the investigation.
	for _, req := range inv.pending {
		obs = append(obs, trust.Observation{
			Source:   req.Responder,
			Trust:    d.trustOf(req.Responder),
			Evidence: 0,
		})
		if c.timeouts == nil {
			c.timeouts = make(map[addr.Node]int)
		}
		c.timeouts[req.Responder]++
		if c.timeouts[req.Responder] >= 2 {
			if c.noInfo == nil {
				c.noInfo = make(addr.Set)
			}
			c.noInfo.Add(req.Responder)
		}
	}
	// Total order, not just by Source: a responder interrogated about
	// several links contributes one observation PER LINK, so Source alone
	// leaves ties whose order would be inherited from map iteration. The
	// tie order is load-bearing twice over — float summation in Detect is
	// order-sensitive in the last bits, and the per-observation trust
	// updates in applyVerdict do not commute (Eq. 5 interleaves α·e with
	// the β decay) — so an underspecified sort here makes whole runs
	// irreproducible.
	slices.SortFunc(obs, func(a, b trust.Observation) int {
		switch {
		case a.Source != b.Source && a.Source < b.Source:
			return -1
		case a.Source != b.Source:
			return 1
		case a.Evidence != b.Evidence && a.Evidence < b.Evidence:
			return -1
		case a.Evidence != b.Evidence:
			return 1
		case a.Trust != b.Trust && a.Trust < b.Trust:
			return -1
		case a.Trust != b.Trust:
			return 1
		case a.Weight < b.Weight:
			return -1
		case a.Weight > b.Weight:
			return 1
		default:
			return 0
		}
	})

	detectVal, ok := trust.Detect(obs)
	verdict := trust.Unrecognized
	var iv trust.Interval
	if ok {
		// Samples for Eq. 9: the trust-weighted evidence terms scaled so
		// their mean equals this round's Detect value. The interval is
		// computed over the evidence accumulated ACROSS rounds for this
		// suspect — this is the §IV-C loop: an unrecognized verdict means
		// "too wide, gather more evidence", and more rounds narrow ε by
		// 1/√n until Eq. 10 can resolve.
		// Effective trust folds in the proof weight exactly as Eq. 8 does
		// (trust.Observation.EffTrust — one definition for both the
		// detection value and its interval), so proven testimony narrows
		// the interval faster too. Unweighted observations keep the exact
		// pre-evidence-plane arithmetic.
		var sumT float64
		for _, o := range obs {
			sumT += o.EffTrust()
		}
		meanT := sumT / float64(len(obs))
		hist := c.samples
		for _, o := range obs {
			hist = append(hist, o.EffTrust()*o.Evidence/meanT)
		}
		if len(hist) > maxCISamples {
			// Shift in place instead of re-slicing so the slab keeps its
			// backing array once it reaches steady state.
			keep := copy(hist, hist[len(hist)-maxCISamples:])
			hist = hist[:keep]
		}
		c.samples = hist
		if civ, err := trust.ConfidenceInterval(hist, d.store.Params().ConfidenceLevel); err == nil {
			iv = civ
			verdict = trust.Decide(detectVal, iv.Margin, d.store.Params().Gamma)
		}
	}

	d.applyVerdict(inv, detectVal, verdict, obs)

	report := Report{
		At:           d.sched.Now(),
		Suspect:      inv.suspect,
		Trigger:      inv.trigger,
		Round:        inv.round,
		Detect:       detectVal,
		Interval:     iv,
		Verdict:      verdict,
		Gravity:      inv.gravity,
		Observations: obs,
		Links:        inv.links,
	}
	d.reports = append(d.reports, report)
	if inv.round > c.lastRound {
		c.lastRound = inv.round
	}
	if d.cfg.Tracer.On() {
		self, suspect := d.cfg.Self.String(), inv.suspect.String()
		for _, o := range obs {
			d.cfg.Tracer.Emit(trace.Event{Plane: trace.PlaneDetect, Kind: trace.KindEvidence,
				Node: self, Peer: suspect, Msg: o.Source.String(), V0: o.Evidence, V1: o.Trust})
		}
		d.cfg.Tracer.Emit(trace.Event{Plane: trace.PlaneDetect, Kind: trace.KindVerdict,
			Node: self, Peer: suspect, Msg: verdict.String(), V0: detectVal, V1: float64(inv.round)})
	}
	// A forged-evidence conviction landed mid-round outranks any
	// testimony aggregate — cryptographic first-hand evidence is final.
	if !d.tainted.Has(inv.suspect) {
		c.verdict = verdict
		c.hasVerdict = true
	}
	if d.cfg.OnReport != nil {
		d.cfg.OnReport(report)
	}

	// Unrecognized: gather more evidence next round (§IV-C).
	if verdict == trust.Unrecognized && inv.round < d.cfg.MaxRounds && len(inv.links) > 0 && !d.tainted.Has(inv.suspect) {
		d.sched.After(d.cfg.ScanPeriod, func() {
			d.OpenInvestigation(inv.suspect, inv.trigger)
		})
	}
}

// applyVerdict feeds the round's outcome back into the trust store: the
// suspect per the verdict, and every responder per its agreement with the
// aggregate's direction (§IV-B: "this result is used to update the trust
// related to I and S1,...,Sm").
func (d *Detector) applyVerdict(inv *investigation, detectVal float64, verdict trust.Verdict, obs []trust.Observation) {
	switch verdict {
	case trust.Intruder:
		// The evidence class scales the hit (property 2-3): a membership
		// violation costs far more than an ambiguous contradiction.
		d.store.Update(inv.suspect, []trust.Evidence{{Value: -1, Gravity: inv.gravity}})
	case trust.WellBehaving:
		d.store.Update(inv.suspect, []trust.Evidence{{Value: 1}})
	case trust.Unrecognized:
		// The aggregate's sign still carries information; nudge the
		// suspect's trust in its direction with reduced weight.
		if detectVal != 0 {
			d.store.Update(inv.suspect, []trust.Evidence{{Value: detectVal / 2}})
		}
	}
	if detectVal == 0 {
		return
	}
	for _, o := range obs {
		if o.Source == d.cfg.Self || o.Evidence == 0 {
			continue
		}
		if (o.Evidence < 0) == (detectVal < 0) {
			d.store.Update(o.Source, []trust.Evidence{{Value: 1}})
		} else {
			d.store.Update(o.Source, []trust.Evidence{{Value: -1}})
		}
	}
}
