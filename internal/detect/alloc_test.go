package detect

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/trust"
)

// TestAllocCeilingFinalize pins the cost of one investigation round on a
// warm detector: open, interrogate, aggregate Eq. 8, finalize, reusing
// the cell's finalized investigation and the detector's scratch. The
// suspect claims node 4, which is not its neighbor; the warm-up rounds
// convict it and drop the abstaining shared neighbors from the witness
// pool, so each measured round, its verdict reset, asks node 4 alone
// and counts its first-hand denial.
func TestAllocCeilingFinalize(t *testing.T) {
	sc := newScenario(t, append(honestAdvertisement(), addr.NodeAt(4)), nil)
	sc.det.OpenInvestigation(sc.suspect, "warmup")
	sc.sched.Run()
	if v, ok := sc.det.Verdict(sc.suspect); !ok || v != trust.Intruder {
		t.Fatalf("warm-up verdict %v (%v), want intruder", v, ok)
	}

	runs := 0
	round := func() {
		runs++
		c := sc.det.cell(sc.suspect)
		c.hasVerdict, c.lastRound = false, 0 // investigate the suspect afresh
		sent, reports := len(sc.tr.sent), len(sc.det.reports)
		sc.det.OpenInvestigation(sc.suspect, "alloc")
		sc.sched.Run()
		if got := len(sc.tr.sent) - sent; got != 1 {
			t.Fatalf("run %d sent %d requests, want 1", runs, got)
		}
		if got := len(sc.det.reports) - reports; got != 1 {
			t.Fatalf("run %d filed %d reports, want 1", runs, got)
		}
		counted := false
		for _, o := range sc.det.reports[reports].Observations {
			counted = counted || o.Source == addr.NodeAt(4) && o.Evidence == -1
		}
		if !counted {
			t.Fatalf("run %d counted no denial from node 4: %+v", runs, sc.det.reports[reports])
		}
	}
	round()
	// The measured count: the two slices the filed Report owns (Links
	// and Observations) and the fixture's two (the in-memory transport's
	// copy of the Avoid list it keeps, and the closure scheduling the
	// reply). A fresh investigation per round took 11.
	const ceiling = 4
	got := testing.AllocsPerRun(20, round)
	if got > ceiling {
		t.Errorf("investigation round: %.1f allocs/run, ceiling %d", got, ceiling)
	}
}

// steadyLog appends what a quiet neighbourhood logs from start to end:
// each neighbour's HELLO every 2 s and TC every 5 s, a duplicate copy of
// each TC, and our own TC echoed back every 5 s.
func steadyLog(b *auditlog.Buffer, self addr.Node, nbs []addr.Node, start, end time.Duration) {
	rec := func(at time.Duration, kind auditlog.Kind, fields ...auditlog.Field) {
		b.Append(auditlog.Record{T: at, Node: self, Kind: kind, Fields: fields})
	}
	for at := start; at < end; at += time.Second {
		sec := int(at / time.Second)
		for i, nb := range nbs {
			if (sec+i)%2 == 0 {
				rec(at, auditlog.KindHelloRx, auditlog.FNode("from", nb),
					auditlog.FNodes("sym", append([]addr.Node{self}, nbs[:i]...)), auditlog.FInt("will", 3))
			}
			if (sec+i)%5 == 0 {
				rec(at, auditlog.KindTCRx, auditlog.FNode("orig", nb), auditlog.FInt("ansn", sec),
					auditlog.FNodes("adv", nbs))
				rec(at, auditlog.KindMsgDrop, auditlog.FNode("from", nbs[0]), auditlog.FNode("orig", nb),
					auditlog.F("reason", "dup"))
			}
		}
		if sec%5 == 0 {
			rec(at, auditlog.KindMsgDrop, auditlog.FNode("from", nbs[0]), auditlog.FNode("orig", self),
				auditlog.F("reason", "own"))
		}
	}
}

// TestAllocCeilingScan pins a warm scan of steady-state lines at zero
// allocations: the signatures read each line in place, parse node lists
// into the matcher's scratch and compact their windows in place.
func TestAllocCeilingScan(t *testing.T) {
	sc := newScenario(t, honestAdvertisement(), nil)
	nbs := []addr.Node{addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(5), addr.NodeAt(6), sc.suspect}
	// Warm-up: first contact sizes every window, map and scratch.
	steadyLog(sc.logs, sc.observer, nbs, 0, 30*time.Second)
	sc.sched.RunUntil(30 * time.Second)
	sc.det.Scan()

	var mallocs uint64
	for batch := range 10 {
		start := time.Duration(30+5*batch) * time.Second
		steadyLog(sc.logs, sc.observer, nbs, start, start+5*time.Second)
		sc.sched.RunUntil(start + 5*time.Second)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc.det.Scan()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs != 0 {
		t.Errorf("10 warm scans allocated %d objects, want 0", mallocs)
	}
	if got := len(sc.det.Alerts()); got != 0 {
		t.Errorf("steady-state lines raised %d alerts: %+v", got, sc.det.Alerts())
	}
}
