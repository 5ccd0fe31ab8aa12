// Quickstart: the smallest end-to-end run of the library.
//
// Seven static nodes form a cluster; one of them spoofs a phantom
// neighbor in its HELLOs (the paper's Expression 1). The victim's
// detector reads its own routing audit log, matches the E1 signature,
// runs a trusted cooperative investigation (Algorithm 1) and convicts the
// spoofer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
)

func main() {
	// 1. A network: unit-disk radio with 150 m range.
	w := core.NewNetwork(core.Config{
		Seed:  42,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})

	// 2. Seven nodes. Node 1 is the victim (it runs a detector); node 9
	// will spoof. Nodes 2,3,5,6 neighbor both; node 4 only the victim.
	positions := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(9): geo.Pt(100, 0),
		addr.NodeAt(2): geo.Pt(50, 60),
		addr.NodeAt(3): geo.Pt(50, -60),
		addr.NodeAt(5): geo.Pt(60, 30),
		addr.NodeAt(6): geo.Pt(60, -30),
		addr.NodeAt(4): geo.Pt(-100, 0),
	}
	membership := addr.NewSet()
	for id := range positions {
		membership.Add(id)
	}

	// The spoofer advertises a non-existing symmetric neighbor, which
	// guarantees it gets selected as a multipoint relay (paper §III-A).
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	spoofer.Active = func() bool { return w.Sched.Now() >= 30*time.Second }

	for _, id := range membership {
		spec := core.NodeSpec{ID: id, Pos: mobility.Static{P: positions[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: membership}
		}
		if id == addr.NodeAt(9) {
			spec.Spoofer = spoofer
			spec.DropControl = true // the suspect also drops investigation traffic
		}
		w.AddNode(spec)
	}

	// 3. Run: 30 s of honest convergence, then the attack.
	w.Start()
	w.RunFor(3 * time.Minute)

	// 4. Inspect the victim's detector.
	victim := w.Node(addr.NodeAt(1))
	fmt.Println("signature alerts seen by the victim:")
	for _, a := range victim.Detector.Alerts() {
		fmt.Printf("  t=%-8s %-16s subject=%s\n", a.At.Truncate(time.Millisecond), a.Rule, a.Subject)
	}
	fmt.Println("\ninvestigation rounds:")
	for _, r := range victim.Detector.Reports() {
		fmt.Printf("  t=%-8s round=%-2d Detect=%+.3f ±%.3f -> %s\n",
			r.At.Truncate(time.Millisecond), r.Round, r.Detect, r.Interval.Margin, r.Verdict)
	}
	verdict, _ := victim.Detector.Verdict(addr.NodeAt(9))
	fmt.Printf("\nfinal verdict on %s: %s (trust %.3f, default 0.4)\n",
		addr.NodeAt(9), verdict, victim.Trust.Get(addr.NodeAt(9)))
}
