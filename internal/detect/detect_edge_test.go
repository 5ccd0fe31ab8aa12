package detect

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/trust"
)

func TestMaxRoundsCapsInvestigation(t *testing.T) {
	// A suspect whose evidence has not resolved by round maxRounds must
	// not be investigated again, however often alerts re-open it.
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.tr.drop = addr.NewSet(addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4),
		addr.NodeAt(5), addr.NodeAt(6))
	sc.det.cell(sc.suspect).lastRound = maxRounds - 1
	for range 3 {
		sc.det.OpenInvestigation(sc.suspect, "test")
		sc.sched.RunUntil(sc.sched.Now() + time.Minute)
	}

	if got := sc.det.InvestigationCount(); got != 1 {
		t.Errorf("investigations = %d, want 1", got)
	}
	if len(sc.reports()) != 1 || sc.reports()[0].Round != maxRounds || sc.reports()[0].Verdict != trust.Unrecognized {
		t.Errorf("%d reports, want one unrecognized round %d", len(sc.reports()), maxRounds)
	}
}

func TestSettledVerdictBlocksReinvestigation(t *testing.T) {
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.det.OpenInvestigation(sc.suspect, "first")
	sc.sched.RunUntil(3 * time.Minute) // enough rounds to convict
	if v, ok := sc.det.Verdict(sc.suspect); !ok || v != trust.Intruder {
		t.Fatalf("not convicted: %v %v", v, ok)
	}
	count := sc.det.InvestigationCount()
	sc.det.OpenInvestigation(sc.suspect, "again")
	if sc.det.InvestigationCount() != count {
		t.Error("settled suspect re-investigated")
	}
}

func TestStaleRepliesIgnored(t *testing.T) {
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	// A reply for an unknown suspect or unknown request id must be a
	// no-op, not a panic or a phantom report.
	sc.det.HandleReply(VerifyReply{ID: 999, Suspect: addr.NodeAt(42), Answered: true})
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.det.HandleReply(VerifyReply{ID: 12345, Suspect: sc.suspect, Answered: true})
	sc.sched.RunUntil(10 * time.Second)
	for _, r := range sc.reports() {
		for _, o := range r.Observations {
			if o.Source == addr.NodeAt(42) {
				t.Error("phantom responder leaked into observations")
			}
		}
	}
}

func TestGravityInReport(t *testing.T) {
	// A phantom advertisement (membership violation) must stamp the round
	// with critical gravity; an honest one stays default.
	phantom := addr.NodeAt(99)
	sc := newScenario(t, append(honestAdvertisement(), phantom), nil)
	sc.det.OpenInvestigation(sc.suspect, "test")
	sc.sched.RunUntil(10 * time.Second)
	if len(sc.reports()) == 0 {
		t.Fatal("no report")
	}
	if got := sc.reports()[0].Gravity; got != trust.GravityCritical {
		t.Errorf("phantom round gravity = %v, want critical", got)
	}

	sc2 := newScenario(t, honestAdvertisement(), nil)
	sc2.det.OpenInvestigation(sc2.suspect, "test")
	sc2.sched.RunUntil(10 * time.Second)
	if len(sc2.reports()) == 0 {
		t.Fatal("no report")
	}
	if got := sc2.reports()[0].Gravity; got != trust.GravityDefault {
		t.Errorf("clean round gravity = %v, want default", got)
	}
}

func TestConvictionFasterWithGravity(t *testing.T) {
	// The same scenario, once with the membership oracle (critical
	// gravity local evidence) and once without: the oracle-backed run
	// must drive the suspect's trust down at least as fast.
	run := func(knownNodes bool) float64 {
		sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(99)), nil)
		if !knownNodes {
			sc.det.cfg.KnownNodes = nil
		}
		sc.det.OpenInvestigation(sc.suspect, "test")
		sc.sched.RunUntil(30 * time.Second)
		return sc.store.Get(sc.suspect)
	}
	with, without := run(true), run(false)
	if with > without {
		t.Errorf("membership oracle made things worse: %v vs %v", with, without)
	}
}
