package core

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/trust"
)

// TestGravityRecordedInReports: a membership violation must carry
// critical gravity through to the report.
func TestGravityRecordedInReports(t *testing.T) {
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	w := newCluster(t, clusterOpts{spoofer: spoofer, seed: 22})
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(90 * time.Second)

	reports := w.Node(addr.NodeAt(1)).Detector.Reports()
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	sawCritical := false
	for _, r := range reports {
		if r.Suspect == addr.NodeAt(9) && r.Gravity == trust.GravityCritical {
			sawCritical = true
		}
	}
	if !sawCritical {
		t.Error("phantom investigation never recorded critical gravity")
	}
}

// TestLossyRadioStillConvicts: 20% frame loss plus a gray zone must slow
// but not break the end-to-end pipeline (the paper's "unreliable nature
// coming from e.g. the high level of collisions").
func TestLossyRadioStillConvicts(t *testing.T) {
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	w := NewNetwork(Config{
		Seed: 23,
		Radio: radio.Config{
			Prop:      radio.LossyDisk{Range: 150, FadeRange: 170, Loss: 0.2},
			PropDelay: time.Millisecond,
		},
	})
	known := addr.NewSet()
	for id := range clusterPositions() {
		known.Add(id)
	}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: clusterPositions()[id]}}
		if id == addr.NodeAt(1) {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		if id == addr.NodeAt(9) {
			spec.Spoofer = spoofer
			spec.DropControl = true
		}
		w.AddNode(spec)
	}
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(5 * time.Minute)

	victim := w.Node(addr.NodeAt(1))
	v, ok := victim.Detector.Verdict(addr.NodeAt(9))
	if !ok || v != trust.Intruder {
		t.Errorf("lossy run verdict = %v (ok=%v)", v, ok)
	}
	if got := victim.Trust.Get(addr.NodeAt(9)); got >= 0.4 {
		t.Errorf("spoofer trust = %v under loss", got)
	}
}

// TestPartitionNoFalseConviction: the victim loses every neighbor
// mid-run; the detector must neither crash nor convict anyone.
func TestPartitionNoFalseConviction(t *testing.T) {
	w := newCluster(t, clusterOpts{seed: 24})
	w.Start()
	w.RunFor(40 * time.Second)
	for _, id := range w.Nodes() {
		if id == addr.NodeAt(1) {
			continue
		}
		w.Medium.SetDown(id, true)
	}
	w.RunFor(2 * time.Minute)

	det := w.Node(addr.NodeAt(1)).Detector
	for _, id := range w.Nodes() {
		if v, ok := det.Verdict(id); ok && v == trust.Intruder {
			t.Errorf("node %v convicted during a partition", id)
		}
	}
	if len(w.Node(addr.NodeAt(1)).Router.SymNeighbors(nil)) != 0 {
		t.Error("neighbors survived the partition")
	}
}

// TestMultiDetectorDeployment: with a detector on every node, each of the
// spoofer's neighbors convicts it independently (distributed detection —
// there is no central enforcement point, the paper's opening premise).
func TestMultiDetectorDeployment(t *testing.T) {
	spoofer := &attack.LinkSpoofer{Mode: attack.SpoofPhantom, Target: addr.NodeAt(99)}
	w := NewNetwork(Config{
		Seed:  26,
		Radio: radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
	})
	known := addr.NewSet()
	for id := range clusterPositions() {
		known.Add(id)
	}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: clusterPositions()[id]}}
		if id != addr.NodeAt(9) {
			spec.Detector = &detect.Config{KnownNodes: known}
		} else {
			spec.Spoofer = spoofer
		}
		w.AddNode(spec)
	}
	spoofer.Active = spoofAt(w, 30*time.Second)
	w.Start()
	w.RunFor(4 * time.Minute)

	convictions := 0
	for _, id := range w.Nodes() {
		n := w.Node(id)
		if n.Detector == nil {
			continue
		}
		if v, ok := n.Detector.Verdict(addr.NodeAt(9)); ok && v == trust.Intruder {
			convictions++
		}
		// Nobody convicts an honest node.
		for _, other := range w.Nodes() {
			if other == addr.NodeAt(9) {
				continue
			}
			if v, ok := n.Detector.Verdict(other); ok && v == trust.Intruder {
				t.Errorf("detector %v convicted honest %v", id, other)
			}
		}
	}
	// The spoofer's direct neighbors (2,3,5,6 and the victim) can all see
	// the forged HELLOs; at least three should convict.
	if convictions < 3 {
		t.Errorf("only %d detectors convicted the spoofer", convictions)
	}
	_ = geo.Point{}
}
