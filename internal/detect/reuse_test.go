package detect

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/trust"
)

// A finalized round's *investigation serves its suspect's next round.
// These tests drive one suspect through many rounds on a warm detector
// and pin what the reuse must not change: filed reports, the late-reply
// rule, deadlines and re-open triggers.

// snapshot deep-copies r, so later rounds cannot reach the copy.
func snapshot(r Report) Report {
	r.Observations = slices.Clone(r.Observations)
	r.Links = slices.Clone(r.Links)
	return r
}

// reopenFresh clears the suspect's verdict and round count, so the next
// OpenInvestigation starts a round however the last one ended.
func (sc *scenario) reopenFresh(trigger string) {
	c := sc.det.cell(sc.suspect)
	c.hasVerdict, c.lastRound = false, 0
	sc.det.OpenInvestigation(sc.suspect, trigger)
}

// TestWarmRoundsKeepFiledReports runs 30 rounds whose link sets and
// timeouts change from round to round, copying each report the moment
// it is filed: no later round may reach into an earlier report's
// Observations or Links.
func TestWarmRoundsKeepFiledReports(t *testing.T) {
	phantom := addr.NodeAt(99)
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	var filed []Report
	var phantomRound int // the first report of iteration 1
	for i := range 30 {
		if i == 1 {
			phantomRound = len(filed)
		}
		// The suspect claims node 4, the phantom, or both.
		adv := honestAdvertisement()
		if i%3 != 1 {
			adv = append(adv, addr.NodeAt(4))
		}
		if i%3 != 0 {
			adv = append(adv, phantom)
		}
		sc.obs.cover[sc.suspect] = addr.NewSet(adv...)
		sc.tr.drop = nil
		if i%4 == 3 {
			sc.tr.drop = addr.NewSet(addr.NodeAt(5))
		}
		sc.reopenFresh(fmt.Sprintf("round-%d", i))
		for sc.sched.Step() {
			for _, r := range sc.reports()[len(filed):] {
				filed = append(filed, snapshot(r))
			}
		}
		if c := sc.det.cell(sc.suspect); c.open != nil || c.spare == nil {
			t.Fatalf("round %d left open %p, spare %p", i, c.open, c.spare)
		}
	}
	got := sc.reports()
	if len(got) < 30 || len(got) != len(filed) {
		t.Fatalf("%d reports, %d snapshots; want >= 30 of each", len(got), len(filed))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], filed[i]) {
			t.Fatalf("report %d changed after filing:\n got %+v\nwant %+v", i, got[i], filed[i])
		}
	}
	if l := got[phantomRound].Links; !slices.Equal(l, []addr.Node{phantom}) {
		t.Fatalf("iteration 1 links %v, want the phantom alone", l)
	}
}

// lateReplyRun drives two rounds of one suspect. Every request of
// round 1 goes unanswered, so it finalizes by its deadline; round 2,
// on the recycled investigation, is answered normally. With inject,
// round 1's replies and a copy of round 2's first reply are delivered
// while round 2 is open.
func lateReplyRun(t *testing.T, inject bool) (*scenario, int) {
	t.Helper()
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.tr.drop = addr.NewSet(addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6))
	sc.det.OpenInvestigation(sc.suspect, "first")
	first := slices.Clone(sc.tr.sent)
	inv := sc.det.cell(sc.suspect).open
	sc.sched.RunUntil(answerTimeout)
	if len(sc.reports()) != 1 || sc.det.cell(sc.suspect).spare != inv {
		t.Fatalf("round 1 did not finalize by its deadline: %+v", sc.reports())
	}

	sc.tr.drop = nil
	sc.reopenFresh("second")
	if sc.det.cell(sc.suspect).open != inv {
		t.Fatal("round 2 did not recycle round 1's investigation")
	}
	late := 0
	if inject {
		for _, req := range first {
			sc.det.HandleReply(ownReply(sc.tr.responders[req.Responder].Answer(req)))
			late++
		}
		req := sc.tr.sent[len(first)]
		rep := ownReply(sc.tr.responders[req.Responder].Answer(req))
		sc.det.HandleReply(rep)
		sc.det.HandleReply(rep)
		late++ // the copy; the in-memory transport then delivers a third
	}
	sc.sched.RunUntil(answerTimeout + 500*time.Millisecond)
	return sc, late
}

// TestLateRepliesStayOutOfRecycledRound delivers round 1's replies, and
// a duplicate of a round 2 reply, while round 2 is open on round 1's
// recycled investigation: each is counted late, and round 2's report
// and every trust value equal those of the run that never saw them.
func TestLateRepliesStayOutOfRecycledRound(t *testing.T) {
	clean, _ := lateReplyRun(t, false)
	dirty, late := lateReplyRun(t, true)
	// The injected duplicate makes the transport's own delivery of that
	// reply a duplicate too.
	if got, want := dirty.det.LateReplies(), clean.det.LateReplies()+uint64(late)+1; got != want {
		t.Errorf("LateReplies = %d, want %d", got, want)
	}
	if len(clean.reports()) != 2 {
		t.Fatalf("%d reports, want 2: %+v", len(clean.reports()), clean.reports())
	}
	if !reflect.DeepEqual(dirty.reports(), clean.reports()) {
		t.Errorf("late replies changed the reports:\n got %+v\nwant %+v", dirty.reports(), clean.reports())
	}
	for _, n := range []addr.Node{dirty.suspect, addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6)} {
		if got, want := dirty.store.Get(n), clean.store.Get(n); got != want {
			t.Errorf("trust of %v = %v, want %v", n, got, want)
		}
	}
	for _, o := range clean.reports()[1].Observations {
		if o.Source == addr.NodeAt(4) && o.Evidence != -1 {
			t.Errorf("round 2 did not count node 4's denial: %+v", clean.reports()[1])
		}
	}
}

// TestCanceledDeadlineSparesRecycledRound finishes round 1 early, which
// cancels its deadline, then opens round 2 on the same investigation
// with every responder silent: round 1's deadline instant passes
// without finalizing round 2, which ends at its own deadline.
func TestCanceledDeadlineSparesRecycledRound(t *testing.T) {
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.det.OpenInvestigation(sc.suspect, "first")
	inv := sc.det.cell(sc.suspect).open
	sc.sched.RunUntil(time.Second)
	if len(sc.reports()) != 1 || sc.reports()[0].At >= answerTimeout {
		t.Fatalf("round 1 did not finish early: %+v", sc.reports())
	}

	sc.tr.drop = addr.NewSet(addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5), addr.NodeAt(6))
	sc.reopenFresh("second")
	if sc.det.cell(sc.suspect).open != inv {
		t.Fatal("round 2 did not recycle round 1's investigation")
	}
	sc.sched.RunUntil(answerTimeout + 500*time.Millisecond) // past round 1's deadline
	if len(sc.reports()) != 1 || sc.det.cell(sc.suspect).open != inv {
		t.Fatalf("round 1's canceled deadline finalized round 2: %+v", sc.reports())
	}
	sc.sched.RunUntil(time.Second + answerTimeout)
	if len(sc.reports()) != 2 || sc.reports()[1].At != time.Second+answerTimeout {
		t.Fatalf("round 2 did not finalize at its own deadline: %+v", sc.reports())
	}
}

// TestReopenKeepsItsTrigger interleaves two re-open chains of one
// suspect, opened 500 ms apart under different triggers. Every round
// recycles the investigation the other chain's round just left, yet
// each re-open carries the trigger it was scheduled with: the rounds
// alternate first, second, ... until the conviction.
func TestReopenKeepsItsTrigger(t *testing.T) {
	liars := map[addr.Node]*attack.Liar{
		addr.NodeAt(2): {Protect: addr.NewSet(addr.NodeAt(9))},
		addr.NodeAt(3): {Protect: addr.NewSet(addr.NodeAt(9))},
	}
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), liars)
	sc.det.OpenInvestigation(sc.suspect, "first")
	sc.sched.RunUntil(500 * time.Millisecond)
	sc.det.OpenInvestigation(sc.suspect, "second")
	sc.sched.RunUntil(time.Minute)

	reports := sc.reports()
	if len(reports) != 8 || reports[7].Verdict != trust.Intruder {
		t.Fatalf("%d rounds, last %+v; want 8 ending in a conviction", len(reports), reports[len(reports)-1])
	}
	for i, r := range reports {
		want := []string{"first", "second"}[i%2]
		if r.Trigger != want || r.Round != i+1 {
			t.Errorf("report %d: round %d trigger %q, want round %d trigger %q", i, r.Round, r.Trigger, i+1, want)
		}
	}
}
