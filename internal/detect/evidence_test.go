package detect

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/trust"
)

// evidenceWorld is a minimal investigator + one-link world for the
// evidence plane: the observer suspects node 9 of claim-advertising a
// link to node 2, and node 2 is the only responder (first-hand).
type evidenceWorld struct {
	sched    *sim.Scheduler
	det      *Detector
	store    *trust.Store
	tr       *memTransport
	heads    HeadMap
	resp     *Responder
	respLogs *auditlog.Buffer
	observer addr.Node
	suspect  addr.Node
	endpoint addr.Node
}

// reports returns every round the detector has finalized so far.
func (w *evidenceWorld) reports() []Report { return w.det.Reports() }

func newEvidenceWorld(t *testing.T) *evidenceWorld {
	t.Helper()
	w := &evidenceWorld{
		sched:    sim.New(1),
		observer: addr.NodeAt(1),
		suspect:  addr.NodeAt(9),
		endpoint: addr.NodeAt(2),
		heads:    HeadMap{},
		respLogs: &auditlog.Buffer{},
	}
	w.respLogs.SetSealKey(nil)

	// Observer: neighbor of 2 only; the suspect's advertisement claims
	// {1, 2} while 2's own HELLOs do not list the suspect — a first-hand
	// contradiction, so link 9–2 is verified with node 2 as responder.
	obs := &fakeRouter{
		self: w.observer,
		sym:  addr.NewSet(w.endpoint),
		cover: map[addr.Node]addr.Set{
			w.endpoint: addr.NewSet(w.observer),
			w.suspect:  addr.NewSet(w.observer, w.endpoint),
		},
	}
	// Node 2: neighbor of the observer only; denies the claimed link.
	respRouter := &fakeRouter{
		self:  w.endpoint,
		sym:   addr.NewSet(w.observer),
		cover: map[addr.Node]addr.Set{w.observer: addr.NewSet(w.endpoint, w.suspect)},
	}
	w.resp = &Responder{
		Self:     w.endpoint,
		Router:   respRouter,
		Evidence: &EvidenceProvider{Log: w.respLogs},
	}

	w.store = trust.NewStore(trust.DefaultParams())
	w.tr = &memTransport{
		sched:      w.sched,
		responders: map[addr.Node]*Responder{w.endpoint: w.resp},
		delay:      10 * time.Millisecond,
	}
	w.det = NewDetector(Config{
		Self:       w.observer,
		KnownNodes: addr.NewSet(w.observer, w.suspect, w.endpoint),
		Heads:      w.heads,
	}, w.sched, obs, &auditlog.Buffer{}, w.tr, w.store)
	w.tr.detector = w.det
	return w
}

// seedRespLog fills the responder's sealed log with records, including a
// HELLO received from the given witness.
func (w *evidenceWorld) seedRespLog(witness addr.Node) {
	for i := 0; i < 7; i++ {
		w.respLogs.Append(auditlog.Record{
			T: time.Duration(i) * time.Second, Node: w.endpoint, Kind: auditlog.KindHelloTx,
			Fields: []auditlog.Field{auditlog.FInt("seq", i)},
		})
	}
	w.respLogs.Append(auditlog.Record{
		T: 8 * time.Second, Node: w.endpoint, Kind: auditlog.KindHelloRx,
		Fields: []auditlog.Field{
			auditlog.FNode("from", witness),
			auditlog.FNodes("sym", []addr.Node{w.endpoint}),
		},
	})
}

// TestProvenContradictionBoosted: a contradiction backed by a verified
// citation against a gossiped head carries the proven weight in the
// round's observations; the investigation still reaches the right
// verdict trajectory.
func TestProvenContradictionBoosted(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	// The investigator gossip-learned the responder's head earlier.
	w.heads[w.endpoint] = w.respLogs.TreeHead()
	// New records land after the gossip — the reply must bridge them
	// with a consistency proof.
	w.respLogs.Append(auditlog.Record{
		T: 9 * time.Second, Node: w.endpoint, Kind: auditlog.KindTCTx,
	})

	w.det.OpenInvestigation(w.suspect, "test")
	w.sched.RunUntil(5 * time.Second)

	if len(w.reports()) == 0 {
		t.Fatal("no report")
	}
	rep := w.reports()[0]
	boosted := false
	for _, o := range rep.Observations {
		if o.Source == w.endpoint {
			if o.Evidence != -1 {
				t.Fatalf("responder evidence = %v, want -1 (denial)", o.Evidence)
			}
			if o.Weight != provenWeight {
				t.Fatalf("responder weight = %v, want %v", o.Weight, float64(provenWeight))
			}
			boosted = true
		}
	}
	if !boosted {
		t.Fatalf("no observation from the responder: %+v", rep.Observations)
	}
	if w.det.ProofFailures() != 0 {
		t.Fatalf("proof failures = %d", w.det.ProofFailures())
	}
}

// TestAgreementNeverBoosted: the same proofs attached to a CONFIRMING
// answer must not raise its weight — provability is asymmetric, and
// boosting agreement would let easily-manufactured confirmations drown
// the spoofing signal (see evidence.go).
func TestAgreementNeverBoosted(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	w.heads[w.endpoint] = w.respLogs.TreeHead()
	// Make node 2 actually confirm the link: the suspect IS its neighbor.
	w.resp.Router.(*fakeRouter).sym.Add(w.suspect)

	w.det.OpenInvestigation(w.suspect, "test")
	w.sched.RunUntil(5 * time.Second)

	if len(w.reports()) == 0 {
		t.Fatal("no report")
	}
	for _, o := range w.reports()[0].Observations {
		if o.Source == w.endpoint {
			if o.Evidence != 1 {
				t.Fatalf("responder evidence = %v, want +1 (confirmation)", o.Evidence)
			}
			if o.Weight != 0 {
				t.Fatalf("confirmation weight = %v, want 0 (plain)", o.Weight)
			}
		}
	}
}

// TestForgedReplyConvictsResponder: a reply whose head contradicts the
// gossiped head is discarded, the responder is convicted on the spot,
// and it leaves the witness pool.
func TestForgedReplyConvictsResponder(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	// Gossip recorded the honest head; then the responder rewrites its
	// history (securelog's compromise-at-t model) before answering.
	w.heads[w.endpoint] = w.respLogs.TreeHead()
	w.respLogs.Rewrite(func(l auditlog.Line) bool { return l.Seq != 2 }, auditlog.Record{
		T: 8 * time.Second, Node: w.endpoint, Kind: auditlog.KindHelloTx,
		Fields: []auditlog.Field{auditlog.F("alibi", "planted")},
	})

	w.det.OpenInvestigation(w.suspect, "test")
	w.sched.RunUntil(5 * time.Second)

	if w.det.ProofFailures() != 1 {
		t.Fatalf("proof failures = %d, want 1", w.det.ProofFailures())
	}
	if v, ok := w.det.Verdict(w.endpoint); !ok || v != trust.Intruder {
		t.Fatalf("forging responder verdict = %v, %v — want intruder", v, ok)
	}
	if got := w.store.Get(w.endpoint); got >= trust.DefaultParams().Default {
		t.Fatalf("forger trust = %v, want below default", got)
	}
	foundAlert := false
	for _, a := range w.det.Alerts() {
		if a.Rule == signature.RuleEvidenceForged && a.Subject == w.endpoint {
			foundAlert = true
		}
	}
	if !foundAlert {
		t.Fatal("no evidence-forged alert")
	}
	// The round about the original suspect still finalizes (by timeout),
	// with the forged testimony absent.
	for _, r := range w.reports() {
		if r.Suspect != w.suspect {
			continue
		}
		for _, o := range r.Observations {
			if o.Source == w.endpoint && o.Evidence != 0 {
				t.Fatalf("forged testimony leaked into the aggregate: %+v", o)
			}
		}
	}
	// And the forger is out of the witness pool for later rounds.
	if resp := w.det.respondersFor(w.suspect, w.endpoint); len(resp) > 0 {
		for _, r := range resp {
			if r == w.endpoint {
				t.Fatal("tainted responder still interrogated")
			}
		}
	}
}

// TestLateAndDuplicateRepliesDropped pins the HandleReply hardening: a
// reply delivered after its round finalized, or delivered twice, is
// dropped and counted — it neither revives the round nor contaminates a
// newer one. A reply discarded as forged is answered too: its second
// copy is late even while the round still waits on another responder.
func TestLateAndDuplicateRepliesDropped(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)

	// Capture the reply instead of delivering it.
	var captured []VerifyReply
	w.tr.responders = nil // requests go nowhere; build replies by hand
	w.det.OpenInvestigation(w.suspect, "test")
	if len(w.tr.sent) == 0 {
		t.Fatal("no requests sent")
	}
	for _, req := range w.tr.sent {
		captured = append(captured, ownReply(w.resp.Answer(req)))
	}

	// Let the round time out and finalize with zero replies.
	w.sched.RunUntil(time.Minute)
	base := len(w.det.Reports())
	if base == 0 {
		t.Fatal("round never finalized")
	}

	// Late delivery after finalize: dropped and counted.
	for _, rep := range captured {
		w.det.HandleReply(rep)
	}
	if got := w.det.LateReplies(); got != uint64(len(captured)) {
		t.Fatalf("LateReplies = %d, want %d", got, len(captured))
	}
	if len(w.det.Reports()) != base {
		t.Fatal("late reply produced a new report")
	}

	// A duplicate inside a live round: the first copy counts, the second
	// is dropped.
	w.det.OpenInvestigation(w.suspect, "test")
	sent := w.tr.sent[len(w.tr.sent)-1]
	rep := w.resp.Answer(sent)
	w.det.HandleReply(rep)
	lateBefore := w.det.LateReplies()
	w.det.HandleReply(rep)
	if got := w.det.LateReplies(); got != lateBefore+1 {
		t.Fatalf("duplicate not counted: LateReplies = %d, want %d", got, lateBefore+1)
	}

	// A forged reply: the investigator gossip-learned the responder's
	// head, and the reply claims a log shrunk below it. Node 3 is asked
	// too and never answers, so the round stays open.
	w = newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	w.heads[w.endpoint] = w.respLogs.TreeHead()
	w.det.router.(*fakeRouter).sym.Add(addr.NodeAt(3))
	w.tr.responders = nil
	w.det.OpenInvestigation(w.suspect, "test")
	if len(w.tr.sent) != 2 {
		t.Fatalf("%d requests sent, want 2: %+v", len(w.tr.sent), w.tr.sent)
	}
	var forged VerifyReply
	for _, req := range w.tr.sent {
		if req.Responder == w.endpoint {
			forged = w.resp.Answer(req)
		}
	}
	forged.Head = &auditlog.TreeHead{}
	w.det.HandleReply(forged)
	if got := w.det.ProofFailures(); got != 1 {
		t.Fatalf("ProofFailures = %d after the forged reply, want 1", got)
	}
	if w.det.cell(w.suspect).open == nil {
		t.Fatal("round closed with a request still pending")
	}
	w.det.HandleReply(forged)
	if got := w.det.LateReplies(); got != 1 {
		t.Fatalf("second copy of a forged reply: LateReplies = %d, want 1", got)
	}
	if got := w.det.ProofFailures(); got != 1 {
		t.Fatalf("second copy of a forged reply verified again: ProofFailures = %d, want 1", got)
	}
}

// TestRoundOfTracksFinalizedRounds keeps the suspect cell's lastRound,
// which numbers the next investigation, equal to the scan it replaced:
// the maximum finalized round per suspect.
func TestRoundOfTracksFinalizedRounds(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	for i := 0; i < 3; i++ {
		w.det.OpenInvestigation(w.suspect, "test")
		w.sched.RunUntil(w.sched.Now() + time.Minute)
	}
	max := 0
	for _, r := range w.det.Reports() {
		if r.Suspect == w.suspect && r.Round > max {
			max = r.Round
		}
	}
	if max == 0 {
		t.Fatal("no finalized rounds")
	}
	if got := w.det.peek(w.suspect).lastRound; got != max {
		t.Fatalf("lastRound = %d, want %d (reports max)", got, max)
	}
}

// TestEvidenceWorldSmoke keeps the harness honest: without any evidence
// machinery engaged the world still produces a finalized report.
func TestEvidenceWorldSmoke(t *testing.T) {
	w := newEvidenceWorld(t)
	w.seedRespLog(w.suspect)
	w.det.OpenInvestigation(w.suspect, "smoke")
	w.sched.RunUntil(30 * time.Second)
	if len(w.reports()) == 0 {
		t.Fatal("no report")
	}
	if fmt.Sprint(w.reports()[0].Suspect) == "" {
		t.Fatal("empty suspect")
	}
}

// citeByRecords is the record-decoding cite the line-level one replaced:
// the last evidenceSearchWindow records, newest first, skipping records
// sealed after the head.
func citeByRecords(log *auditlog.Buffer, witness addr.Node, head auditlog.TreeHead) (Citation, bool) {
	var start uint64
	if next := log.NextSeq(); next > evidenceSearchWindow {
		start = next - evidenceSearchWindow
	}
	recs, next := log.Since(start)
	base := next - uint64(len(recs)) //nolint:gosec // len >= 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind != auditlog.KindHelloRx {
			continue
		}
		from, err := recs[i].NodeField("from")
		if err != nil || from != witness {
			continue
		}
		index := base + uint64(i) //nolint:gosec // i >= 0
		if index >= head.Size {
			continue
		}
		proof, err := log.InclusionProof(nil, index, head.Size)
		if err != nil {
			return Citation{}, false
		}
		return Citation{Index: index, Record: recs[i].String(), Proof: proof}, true
	}
	return Citation{}, false
}

// TestCiteMatchesRecordReference pins the line-level cite to the
// record-decoding one: same window, same skips, same citation — including
// a witness whose only HELLO lies just outside the 512-record window and
// a head taken before the newest HELLO.
func TestCiteMatchesRecordReference(t *testing.T) {
	witness, other := addr.NodeAt(2), addr.NodeAt(3)
	hello := func(from addr.Node, i int) auditlog.Record {
		return auditlog.Record{T: time.Duration(i) * time.Millisecond, Node: addr.NodeAt(1),
			Kind: auditlog.KindHelloRx, Fields: []auditlog.Field{
				auditlog.FNode("from", from), auditlog.FNodes("sym", []addr.Node{addr.NodeAt(1)})}}
	}
	filler := func(i int) auditlog.Record {
		return auditlog.Record{T: time.Duration(i) * time.Millisecond, Node: addr.NodeAt(1),
			Kind: auditlog.KindTCTx, Fields: []auditlog.Field{auditlog.FInt("ansn", i)}}
	}
	for _, tc := range []struct {
		name      string
		helloAt   []int // positions of witness HELLOs
		total     int
		headShort uint64 // head taken this many records before the end
		wantCite  bool
	}{
		{"only hello just outside the window", []int{0}, 513, 0, false},
		{"only hello at the window's oldest slot", []int{1}, 513, 0, true},
		{"newest hello sealed after the head", []int{100, 590}, 600, 15, true},
		{"every hello sealed after the head", []int{598}, 600, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &auditlog.Buffer{}
			log.SetSealKey(nil)
			at := map[int]bool{}
			for _, i := range tc.helloAt {
				at[i] = true
			}
			for i := 0; i < tc.total; i++ {
				switch {
				case at[i]:
					log.Append(hello(witness, i))
				case i%7 == 0:
					log.Append(hello(other, i))
				default:
					log.Append(filler(i))
				}
			}
			head, err := log.TreeHeadAt(log.SealedSize() - tc.headShort)
			if err != nil {
				t.Fatal(err)
			}
			p := &EvidenceProvider{Log: log}
			got, gotOK := p.cite(witness, head)
			want, wantOK := citeByRecords(log, witness, head)
			if gotOK != tc.wantCite || wantOK != tc.wantCite {
				t.Fatalf("cite found %v, reference %v, want %v", gotOK, wantOK, tc.wantCite)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cite = %+v, reference %+v", got, want)
			}
		})
	}
}
