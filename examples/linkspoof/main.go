// Linkspoof runs a campaign over the three link-spoofing variants of the
// paper's §III-A (Expressions 1–3) on the packet-level stack and reports
// how each is detected:
//
//   - phantom: a non-existing node is declared a symmetric neighbor
//   - claim: an existing but distant node is declared adjacent
//   - omit: a real symmetric neighbor is removed from the HELLOs
//
// Run with:
//
//	go run ./examples/linkspoof
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
	"repro/internal/trust"
)

func main() {
	for _, variant := range []struct {
		mode   attack.SpoofMode
		target addr.Node
	}{
		{attack.SpoofPhantom, addr.NodeAt(99)}, // outside the membership set
		{attack.SpoofClaim, addr.NodeAt(8)},    // real but unreachable node
		{attack.SpoofOmit, addr.NodeAt(2)},     // a real shared neighbor
	} {
		runVariant(variant.mode, variant.target)
		fmt.Println()
	}
}

func runVariant(mode attack.SpoofMode, target addr.Node) {
	fmt.Printf("=== variant: %s (target %s) ===\n", mode, target)

	w := core.NewNetwork(core.Config{
		Seed:  7,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})
	positions := map[addr.Node]geo.Point{
		addr.NodeAt(1): geo.Pt(0, 0),
		addr.NodeAt(9): geo.Pt(100, 0),
		addr.NodeAt(2): geo.Pt(50, 60),
		addr.NodeAt(3): geo.Pt(50, -60),
		addr.NodeAt(5): geo.Pt(60, 30),
		addr.NodeAt(6): geo.Pt(60, -30),
		addr.NodeAt(4): geo.Pt(-100, 0),
		addr.NodeAt(8): geo.Pt(2000, 0), // exists, far out of range
	}
	membership := addr.NewSet()
	for id := range positions {
		membership.Add(id)
	}

	spoofer := &attack.LinkSpoofer{Mode: mode, Target: target}
	spoofer.Active = func() bool { return w.Sched.Now() >= 30*time.Second }

	for _, id := range membership {
		spec := core.NodeSpec{ID: id, Pos: mobility.Static{P: positions[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: membership}
		}
		if id == addr.NodeAt(9) {
			spec.Spoofer = spoofer
			spec.DropControl = true
		}
		w.AddNode(spec)
	}
	w.Start()

	// Walk time forward and note when the verdict lands.
	var convictedAt time.Duration = -1
	for w.Sched.Now() < 4*time.Minute {
		w.RunFor(time.Second)
		if convictedAt < 0 {
			if v, ok := w.Node(addr.NodeAt(1)).Detector.Verdict(addr.NodeAt(9)); ok && v == trust.Intruder {
				convictedAt = w.Sched.Now()
			}
		}
	}

	victim := w.Node(addr.NodeAt(1))
	det := victim.Detector
	fmt.Printf("forged HELLOs emitted:  %d\n", spoofer.Spoofed())
	fmt.Printf("signature alerts:       %d\n", len(det.Alerts()))
	fmt.Printf("investigation rounds:   %d\n", det.InvestigationCount())
	if convictedAt >= 0 {
		fmt.Printf("convicted at:           %s (%s after attack start)\n",
			convictedAt.Truncate(time.Second), (convictedAt - 30*time.Second).Truncate(time.Second))
	} else {
		v, ok := det.Verdict(addr.NodeAt(9))
		fmt.Printf("no conviction (verdict=%v ok=%v)\n", v, ok)
	}
	fmt.Printf("spoofer trust:          %.3f\n", victim.Trust.Get(addr.NodeAt(9)))
	if reports := det.Reports(); len(reports) > 0 {
		last := reports[len(reports)-1]
		fmt.Printf("last round:             Detect=%+.3f ±%.3f links=%v\n",
			last.Detect, last.Interval.Margin, last.Links)
	}
}
