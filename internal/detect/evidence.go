// The evidence plane of the detector (DESIGN.md §8): responders back
// their testimony with records cited from their tamper-evident audit log
// (internal/auditlog seal.go), and the investigator verifies the proofs
// before counting the testimony.
//
// A reply carries the responder's current tree head, a consistency proof
// linking it to the head the investigator already gossip-learned (sent
// along in the request as KnownHead), and per-record inclusion proofs.
// Verification has three outcomes:
//
//   - proven — the head extends gossiped history append-only and every
//     citation is included and grounds the answer;
//   - unanchored — nothing to check against (no gossiped head yet, or no
//     citations): the testimony counts at its plain trust;
//   - forged — the head contradicts gossiped history or a citation fails
//     its proof: the testimony is discarded and the forgery itself
//     becomes first-hand negative evidence about the RESPONDER
//     (Detector.ReportForgedEvidence), the paper's property 5 applied to
//     evidence integrity.
//
// Proven testimony is weight-boosted (provenWeight) ONLY when it
// CONTRADICTS the suspect's advertisement. The asymmetry is deliberate.
// Provability itself is asymmetric: a link's existence is witnessed by a
// logged HELLO, but the phantom link at the heart of Expression 1 has no
// HELLO anyone could cite — denials of it are structurally unprovable.
// A symmetric boost therefore amplifies exactly the confirmations of
// the suspect's REAL links and drowns the spoofing signal; worse, a
// colluder can manufacture proven confirmations append-only (log a fake
// reception, cite it — the tree stays consistent), while a proven
// contradiction at least pins a concrete, signed-over record the
// responder must stand behind. Boosting verified contradiction only
// mirrors the trust system's defensive stance (AlphaNeg ≫ AlphaPos,
// GravityHigh for first-hand contradictions).
package detect

import (
	"repro/internal/addr"
	"repro/internal/auditlog"
)

// Citation is one sealed log record cited as grounds for a reply: its
// canonical line, its leaf index, and the inclusion proof tying it to the
// reply's tree head.
type Citation struct {
	Index  uint64
	Record string
	Proof  auditlog.Proof
}

// HeadSource supplies the latest gossip-verified evidence-log tree head
// per node. The core package implements it over the tree-head flood;
// tests implement it with a map.
type HeadSource interface {
	LatestHead(n addr.Node) (auditlog.TreeHead, bool)
}

// HeadMap is the trivial HeadSource for tests and tools.
type HeadMap map[addr.Node]auditlog.TreeHead

// LatestHead implements HeadSource.
func (m HeadMap) LatestHead(n addr.Node) (auditlog.TreeHead, bool) {
	h, ok := m[n]
	return h, ok
}

// evidenceSearchWindow bounds how far back a responder scans its log for
// a supporting citation.
const evidenceSearchWindow = 512

// EvidenceProvider attaches sealed-log evidence to a responder's replies.
type EvidenceProvider struct {
	// Log is the responder's own sealed audit log.
	Log *auditlog.Buffer

	// The evidence of the latest reply, which points here; the proofs'
	// paths are the storage the next reply's proofs are built in.
	head  auditlog.TreeHead
	cons  auditlog.Proof
	cites [1]Citation
}

// Attach adds the responder's tree head, the consistency proof back to
// the investigator's known head, and a supporting citation to the reply,
// all held in the provider's scratch until its next Attach.
// It runs after any Liar mutation — a lying node cites whatever its
// (possibly rewritten) log contains, which is exactly what the verifier
// is designed to catch.
//
//repro:allocfree
func (p *EvidenceProvider) Attach(req VerifyRequest, rep *VerifyReply) {
	p.head = p.Log.TreeHead()
	rep.Head = &p.head
	if req.KnownHead != nil && req.KnownHead.Size <= p.head.Size {
		if proof, err := p.Log.ConsistencyProof(p.cons.Path, req.KnownHead.Size, p.head.Size); err == nil {
			p.cons = proof
			rep.Consistency = &p.cons
		}
	}
	if !rep.Answered {
		return // nothing to ground
	}
	// The record grounding the answer: for first-hand answers the latest
	// HELLO received from the suspect itself; otherwise the latest HELLO
	// from the link endpoint whose advertisement the responder judged.
	witness := req.Link
	if req.Link == rep.Responder {
		witness = req.Suspect
	}
	if c, ok := p.cite(witness, p.head); ok {
		p.cites[0] = c
		rep.Citations = p.cites[:]
	}
}

// cite finds the most recent HELLO_RX from witness among the last
// evidenceSearchWindow records and proves its inclusion in head. It reads
// the stored lines in place; the citation carries the line itself, and
// its proof path is the provider's scratch.
func (p *EvidenceProvider) cite(witness addr.Node, head auditlog.TreeHead) (Citation, bool) {
	var start uint64
	if next := p.Log.NextSeq(); next > evidenceSearchWindow {
		start = next - evidenceSearchWindow
	}
	for seq := p.Log.NextSeq(); seq > start; {
		seq--
		l, _ := p.Log.LineAt(seq) // seq < NextSeq
		if l.Kind() != auditlog.KindHelloRx {
			continue
		}
		from, err := l.NodeField("from")
		if err != nil || from != witness {
			continue
		}
		if seq >= head.Size {
			continue // sealed after the head was taken
		}
		proof, err := p.Log.InclusionProof(p.cites[0].Proof.Path, seq, head.Size)
		if err != nil {
			return Citation{}, false
		}
		return Citation{Index: seq, Record: l.Text, Proof: proof}, true
	}
	return Citation{}, false
}

// evidenceStatus is the verifier's verdict about one reply.
type evidenceStatus int

const (
	// evidenceUnanchored: nothing to verify against — plain testimony.
	evidenceUnanchored evidenceStatus = iota
	// evidenceProven: head consistent with gossip and citations included.
	evidenceProven
	// evidenceForged: the reply contradicts the responder's own sealed
	// history.
	evidenceForged
)

// verifyEvidence checks a reply's proofs against the gossiped view of
// the responder's log. contradicts reports whether the reply's answer
// disputes the suspect's advertisement — only such testimony can earn
// the proven boost (see the package comment for why).
func (d *Detector) verifyEvidence(rep VerifyReply, contradicts bool) evidenceStatus {
	if rep.Head == nil {
		if len(rep.Citations) > 0 {
			return evidenceForged // citations with nothing to verify them against
		}
		return evidenceUnanchored
	}
	known, anchored := d.cfg.Heads.LatestHead(rep.Responder)
	if anchored {
		switch {
		case rep.Head.Size < known.Size:
			return evidenceForged // the log shrank: history was rewritten
		case rep.Head.Size == known.Size:
			if rep.Head.Root != known.Root {
				return evidenceForged
			}
		default:
			var proof auditlog.Proof
			if rep.Consistency != nil {
				proof = *rep.Consistency
			}
			if !auditlog.VerifyConsistency(known, *rep.Head, proof) {
				return evidenceForged
			}
		}
	}
	// The record that grounds the answer: a HELLO the responder logged
	// from the witness side of the judged link (EvidenceProvider.Attach
	// mirrors this choice).
	witness := rep.Link
	if rep.Link == rep.Responder {
		witness = rep.Suspect
	}
	grounded := false
	for _, c := range rep.Citations {
		rec, err := auditlog.ParseLine(c.Record)
		if err != nil || rec.Node != rep.Responder {
			return evidenceForged
		}
		if !auditlog.VerifyInclusion(auditlog.LeafHash([]byte(c.Record)), c.Index, *rep.Head, c.Proof) {
			return evidenceForged
		}
		if from, err := rec.NodeField("from"); err == nil &&
			from == witness && rec.Kind == auditlog.KindHelloRx {
			grounded = true
		}
	}
	if anchored && grounded && contradicts {
		return evidenceProven
	}
	return evidenceUnanchored
}

// provenWeight is the Eq. 8 trust multiplier for proof-backed testimony:
// it doubles its trust share — the same factor trust.GravityHigh applies
// to first-hand contradictions.
const provenWeight = 2
