// Blackhole demonstrates detection of the drop attack (paper §II-B): a
// selected multipoint relay silently discards the traffic it should
// forward. The victim never sees its own TC echoed back by the relay —
// the absence signature (E2) fires from the audit log alone, and the
// relay's trust collapses.
//
//	go run ./examples/blackhole
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
	// Line topology 2 — 1 — 3 — 4: node 3 is the victim's only MPR (it
	// alone reaches node 4) and black-holes everything.
	w := core.NewNetwork(core.Config{
		Seed:  11,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 120}, PropDelay: time.Millisecond},
	})
	positions := map[addr.Node]geo.Point{
		addr.NodeAt(2): geo.Pt(0, 0),
		addr.NodeAt(1): geo.Pt(100, 0),
		addr.NodeAt(3): geo.Pt(200, 0),
		addr.NodeAt(4): geo.Pt(300, 0),
	}
	membership := addr.NewSet()
	for id := range positions {
		membership.Add(id)
	}
	for _, id := range membership {
		spec := core.NodeSpec{ID: id, Pos: mobility.Static{P: positions[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: membership}
		}
		w.AddNode(spec)
	}

	bh := &attack.BlackHole{}
	bh.Install(w.Node(addr.NodeAt(3)).Router)

	w.Start()
	victim := w.Node(addr.NodeAt(1))
	for minute := 1; minute <= 3; minute++ {
		w.RunFor(time.Minute)
		fmt.Printf("t=%dm: trust in the black-holing MPR %s = %.3f (innocent neighbor %s = %.3f)\n",
			minute,
			addr.NodeAt(3), victim.Trust.Get(addr.NodeAt(3)),
			addr.NodeAt(2), victim.Trust.Get(addr.NodeAt(2)))
	}

	fmt.Printf("\nframes the black hole swallowed: %d\n", bh.Dropped())
	fmt.Println("relay-drop alerts in the victim's log:")
	count := 0
	for _, a := range victim.Detector.Alerts() {
		if a.Rule == "relay-drop" {
			count++
		}
	}
	fmt.Printf("  %d alerts (one per unacknowledged TC emission window)\n", count)
	fmt.Println("\nNote: the detection is purely log-based — the victim only observed")
	fmt.Println("that its own TCs were never echoed back by the relay (E2, §III).")
}
