package core

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// logsNetwork builds the cluster world with detectors on the nodes
// detects selects, a log forger on node 4 when forger is set, and the
// evidence plane as given.
func logsNetwork(evidence, forger bool, detects func(addr.Node) bool) *Network {
	w := NewNetwork(Config{
		Seed:     3,
		Radio:    radio.Config{Prop: radio.UnitDisk{Range: 150}, PropDelay: time.Millisecond},
		Evidence: evidence,
	})
	known := addr.NewSet()
	for id := range clusterPositions() {
		known.Add(id)
	}
	for _, id := range known {
		spec := NodeSpec{ID: id, Pos: mobility.Static{P: clusterPositions()[id]}}
		if detects(id) {
			spec.Detector = &detect.Config{KnownNodes: known}
		}
		if forger && id == addr.NodeAt(4) {
			spec.Forger = &attack.LogForger{}
		}
		w.AddNode(spec)
	}
	return w
}

// TestLogsOnlyWhereRead pins which nodes keep an audit log: a node's own
// detector, a forger's rewrites and the evidence plane read it, so those
// nodes keep one; every other node has a nil log and only counts its
// records.
func TestLogsOnlyWhereRead(t *testing.T) {
	victim := addr.NodeAt(1)
	onlyVictim := func(id addr.Node) bool { return id == victim }
	everyone := func(addr.Node) bool { return true }

	t.Run("one detector", func(t *testing.T) {
		w := logsNetwork(false, true, onlyVictim)
		w.Start()
		w.RunFor(30 * time.Second)
		for _, id := range w.Nodes() {
			n := w.Node(id)
			want := n.Detector != nil || id == addr.NodeAt(4)
			if got := n.Logs != nil; got != want {
				t.Errorf("%v: has log %v, want %v (detector %v)", id, got, want, n.Detector != nil)
			}
			if n.Router.Records() == 0 {
				t.Errorf("%v: counted no records in 30s", id)
			}
			if n.Logs != nil && n.Logs.Len() != n.Router.Records() {
				t.Errorf("%v: log holds %d records, router counted %d", id, n.Logs.Len(), n.Router.Records())
			}
		}
	})

	t.Run("detect all", func(t *testing.T) {
		w := logsNetwork(false, false, everyone)
		for _, id := range w.Nodes() {
			if w.Node(id).Logs == nil {
				t.Errorf("%v: a detector node has no log", id)
			}
		}
	})

	t.Run("evidence plane", func(t *testing.T) {
		w := logsNetwork(true, false, onlyVictim)
		sealed := map[addr.Node]uint64{}
		for _, id := range w.Nodes() {
			n := w.Node(id)
			if n.Logs == nil {
				t.Fatalf("%v: no log with the evidence plane on", id)
			}
			sealed[id] = n.Logs.SealedSize()
		}
		w.Start()
		w.RunFor(30 * time.Second)
		for _, id := range w.Nodes() {
			if got := w.Node(id).Logs.SealedSize(); got <= sealed[id] {
				t.Errorf("%v: sealed size %d after the run, %d before: the log is not armed", id, got, sealed[id])
			}
		}
	})
}
