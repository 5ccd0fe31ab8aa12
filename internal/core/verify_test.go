package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/auditlog"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// verifyRun is what a verify exchange leaves behind: every detector's
// reports, late replies and proof failures, the network's ctrl counters,
// and how many verify envelopes were relayed and how many delivered
// replies carried evidence.
type verifyRun struct {
	state          string
	relays, proofs int
}

// verifyExchange runs the cluster world with the evidence plane on, a
// detector on every node but 9, and node 9 claiming node 8, which only
// node 4 can reach. Each detector investigates 9 once: requests to 8
// detour around the suspect through 4, and 8's proof-carrying replies
// come back the same way. With poison set, the network's decode scratch
// is overwritten with junk after every frame a node handles, so
// anything a handler kept of a decoded envelope shows in the run.
func verifyExchange(poison bool) verifyRun {
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofClaim, Target: addr.NodeAt(8)}
	w := NewNetwork(Config{
		Seed:     2,
		Radio:    radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
		Evidence: true,
	})
	positions := clusterPositions()
	positions[addr.NodeAt(8)] = geo.Pt(-200, 0)
	known := addr.NewSet()
	for id := range positions {
		known.Add(id)
	}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: positions[id]}}
		if id == addr.NodeAt(9) {
			spec.Spoofer = spoofer
			spec.DropControl = true
		} else {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		w.AddNode(spec)
	}
	spoofer.Active = spoofAt(w, 20*time.Second)

	var run verifyRun
	var peek ctrlScratch
	for _, id := range known {
		n := w.Node(id)
		// Both runs re-attach, so they differ only in the poisoning.
		w.Medium.Attach(id, n.Position, func(f radio.Frame) {
			if f.Payload[0] == PayloadCtrl {
				if m, err := decodeCtrlMsg(f.Payload[1:], &peek); err == nil && m.Kind != ctrlTreeHead {
					if m.To != n.ID {
						run.relays++
					} else if m.Rep != nil && m.Rep.Head != nil {
						run.proofs++
					}
				}
			}
			n.handleFrame(f)
			if poison {
				poisonCtrlScratch(&w.ctrlScratch)
			}
		})
	}
	w.Start()
	for i, id := range known {
		if d := w.Node(id).Detector; d != nil {
			w.Sched.After(30*time.Second+time.Duration(i)*time.Second, func() {
				d.OpenInvestigation(addr.NodeAt(9), "test")
			})
		}
	}
	w.RunFor(120 * time.Second)

	for _, id := range known {
		if d := w.Node(id).Detector; d != nil {
			run.state += fmt.Sprintf("%v: reports %+v late %d proof failures %d\n",
				id, d.Reports(), d.LateReplies(), d.ProofFailures())
		}
	}
	run.state += fmt.Sprintf("ctrl %+v", w.CtrlStats())
	return run
}

// poisonCtrlScratch overwrites every field of s, and all the storage its
// buffers hold, with values no real envelope of verifyExchange carries.
// Every node field, Avoid lists included, names node 4, the one relay to
// node 8, so a kept list would block the detour.
func poisonCtrlScratch(s *ctrlScratch) {
	junk := addr.NodeAt(4)
	head := auditlog.TreeHead{Size: 1 << 40, Root: auditlog.Hash{0xde, 0xad}}
	for _, buf := range []*[]addr.Node{&s.avoid, &s.reqAvoid} {
		*buf = (*buf)[:cap(*buf)]
		for i := range *buf {
			(*buf)[i] = junk
		}
	}
	s.citePath = s.citePath[:cap(s.citePath)]
	paths := []*[]auditlog.Hash{&s.path, &s.consPath}
	for i := range s.citePath {
		paths = append(paths, &s.citePath[i])
	}
	for _, buf := range paths {
		*buf = (*buf)[:cap(*buf)]
		for i := range *buf {
			(*buf)[i] = head.Root
		}
	}
	s.head, s.known, s.repHead = head, head, head
	s.proof = auditlog.Proof{Path: s.path}
	s.cons = auditlog.Proof{Path: s.consPath}
	s.cites = s.cites[:cap(s.cites)]
	for i := range s.cites {
		s.cites[i] = detect.Citation{Index: 1 << 40, Record: "junk", Proof: s.proof}
	}
	s.req = detect.VerifyRequest{ID: 1<<64 - 1, Investigator: junk, Responder: junk, Suspect: junk,
		Link: junk, Advertised: true, Avoid: s.reqAvoid, KnownHead: &s.known}
	s.rep = detect.VerifyReply{ID: 1<<64 - 1, Responder: junk, Suspect: junk, Link: junk,
		Answered: true, LinkExists: true, FirstHand: true, Head: &s.repHead, Consistency: &s.cons,
		Citations: s.cites}
	s.msg = ctrlMsg{Kind: 0xff, From: junk, To: junk, TTL: -7, Avoid: s.avoid, Req: &s.req, Rep: &s.rep,
		Origin: junk, Head: &s.head, HeadPrev: 1 << 40, HeadProof: &s.proof}
}

// TestVerifyExchangeKeepsNoScratch drives multi-hop verify exchanges
// with evidence replies and overwrites the decode scratch after every
// handled frame: the detectors' reports and the ctrl counters must be
// those of the same run left alone.
func TestVerifyExchangeKeepsNoScratch(t *testing.T) {
	clean, poisoned := verifyExchange(false), verifyExchange(true)
	if clean.relays == 0 || clean.proofs == 0 {
		t.Fatalf("the run relayed %d verify envelopes and delivered %d evidence replies; want both", clean.relays, clean.proofs)
	}
	if poisoned != clean {
		t.Fatalf("poisoning the scratch changed the run:\n got %+v\nwant %+v", poisoned, clean)
	}
}

// TestCtrlScratchPerNetwork runs two networks' verify exchanges on two
// goroutines at once, as the scenario engine's workers do: each network
// decodes into its own scratch, so both runs equal a run made alone
// (and `go test -race` finds no shared write).
func TestCtrlScratchPerNetwork(t *testing.T) {
	want := verifyExchange(false)
	var got [2]verifyRun
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = verifyExchange(false)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d's run differs from a run made alone:\n got %+v\nwant %+v", i, g, want)
		}
	}
}
