package repro

// Allocation-regression tier (DESIGN.md §10): the hot-path memory
// architecture — dense node indices, slab trust state, arena reuse,
// binary control codecs — bought a >5× cut in allocs/run.
// These tests pin that win so it cannot silently erode:
//
//   - TestAllocCeiling*: testing.AllocsPerRun hard ceilings on the
//     steady-state hot functions. Most are zero — a warm store, ledger,
//     or encoder must not allocate at all.
//   - TestAllocBudget: whole-preset allocation budgets. Runs small
//     full-stack presets, counts runtime.MemStats.Mallocs and
//     TotalAlloc, and fails on a >10% regression of either over
//     testdata/alloc_budget.json. Re-record an intentional change with
//     -update-alloc-budget (make alloc-update).
//
// The detect round-finalize and scan ceilings live in internal/detect
// (they need the package's investigation fixture), and the core OLSR emission
// ceiling in internal/core (the router's send function is the node's
// own). Run the whole tier with `make alloc`.

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/reputation"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trust"
	"repro/internal/wire"
)

var updateAllocBudget = flag.Bool("update-alloc-budget", false,
	"rewrite testdata/alloc_budget.json from this run")

// allocCeiling asserts fn stays at or under limit allocations per call.
func allocCeiling(t *testing.T, name string, limit float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, fn); got > limit {
		t.Errorf("%s: %.1f allocs/run, ceiling %.0f", name, got, limit)
	}
}

// TestAllocCeilingTrust pins the trust slab: reads, Eq. 5 updates and
// the node listing into a reused slice are allocation-free on a warm
// store.
func TestAllocCeilingTrust(t *testing.T) {
	s := trust.NewStore(trust.DefaultParams())
	for i := 1; i <= 32; i++ {
		s.Set(addr.NodeAt(i), 0.5)
	}
	ev := []trust.Evidence{{Value: 1}, {Value: -1}}
	target := addr.NodeAt(7)
	sink := 0.0
	allocCeiling(t, "trust.Store.Get", 0, func() { sink = s.Get(target) })
	allocCeiling(t, "trust.Store.Update", 0, func() { sink = s.Update(target, ev) })
	buf := make([]addr.Node, 0, 64)
	allocCeiling(t, "trust.Store.NodesInto", 0, func() { buf = s.NodesInto(buf[:0]) })
	_ = sink
}

// TestAllocCeilingReputation pins the reputation plane's steady state:
// building the outgoing vector into a reused slice and applying a known
// recommender's vector to warm rows allocate nothing.
func TestAllocCeilingReputation(t *testing.T) {
	direct := trust.NewStore(trust.DefaultParams())
	for i := 2; i <= 17; i++ {
		direct.Set(addr.NodeAt(i), 0.4+0.01*float64(i))
	}
	led := reputation.NewLedger(addr.NodeAt(1), direct, false)
	vec := make([]reputation.Entry, 0, 32)
	vec = led.AppendVector(vec[:0])
	if len(vec) == 0 {
		t.Fatal("empty warmup vector")
	}
	rec := addr.NodeAt(5)
	led.Ingest(rec, vec, time.Second) // warm the rows
	now := time.Second
	allocCeiling(t, "reputation.Ledger.AppendVector", 0, func() { vec = led.AppendVector(vec[:0]) })
	allocCeiling(t, "reputation.Ledger.Ingest", 0, func() {
		now += time.Second
		led.Ingest(rec, vec, now)
	})
}

// TestAllocCeilingWireEncode pins the OLSR packet codec: appending a
// HELLO packet into a reused buffer is allocation-free.
func TestAllocCeilingWireEncode(t *testing.T) {
	p := &wire.Packet{Seq: 1, Messages: []wire.Message{{
		VTime: 6 * time.Second, Originator: addr.NodeAt(1), TTL: 1, Seq: 1,
		Body: &wire.Hello{
			HTime: 2 * time.Second,
			Will:  wire.WillDefault,
			Links: []wire.LinkBlock{{
				Code:      wire.MakeLinkCode(wire.NeighSym, wire.LinkSym),
				Neighbors: []addr.Node{addr.NodeAt(2), addr.NodeAt(3), addr.NodeAt(4), addr.NodeAt(5)},
			}},
		},
	}}}
	buf := make([]byte, 0, 256)
	allocCeiling(t, "wire.Packet.AppendTo", 0, func() { buf = p.AppendTo(buf[:0]) })
}

// TestAllocCeilingSim pins the event kernel: scheduling through At and
// After with a non-capturing func, AfterBurst and AfterCall with a
// pointer arg, canceling an AfterCall, Step, and a ticker's
// steady-state firing allocate nothing once the queue has capacity.
func TestAllocCeilingSim(t *testing.T) {
	s := sim.New(1)
	noop := func() {}
	bump := func(a any) { *a.(*int)++ }
	calls := 0
	// Grow the heap past the 505 entries the AllocsPerRun(100) calls below
	// push before it next drains; it keeps its capacity once drained.
	for range 1024 {
		s.After(0, noop)
	}
	s.Run()
	allocCeiling(t, "sim.Scheduler.At", 0, func() { s.At(s.Now()+time.Second, noop) })
	allocCeiling(t, "sim.Scheduler.After", 0, func() { s.After(time.Second, noop) })
	allocCeiling(t, "sim.Scheduler.AfterBurst", 0, func() { s.AfterBurst(time.Second, 8, bump, &calls) })
	allocCeiling(t, "sim.Scheduler.AfterCall + Cancel", 0, func() {
		s.AfterCall(time.Second, bump, &calls).Cancel()
		s.AfterCall(time.Second, bump, &calls)
	})
	allocCeiling(t, "sim.Scheduler.Step", 0, func() { s.Step() })
	s.Run()
	s.Every(0, time.Millisecond, 0.5, noop)
	s.Step()
	allocCeiling(t, "sim.Ticker firing", 0, func() { s.Step() })
	if calls != 9*101 {
		t.Fatalf("AfterBurst and AfterCall calls ran %d times, want %d", calls, 9*101)
	}
}

// TestAllocCeilingMedium pins the radio medium: on a warm medium, a
// broadcast to eight receivers, queued as one burst that owns a copy of
// the payload, and its delivery allocate nothing.
func TestAllocCeilingMedium(t *testing.T) {
	s := sim.New(1)
	m := radio.NewMedium(s, radio.Config{Prop: radio.UnitDisk{Range: 100}})
	got := 0
	for i := 1; i <= 9; i++ {
		p := geo.Pt(float64(10*i), 0)
		m.Attach(addr.NodeAt(i), func() geo.Point { return p }, func(f radio.Frame) { got += len(f.Payload) })
	}
	payload := make([]byte, 64)
	send := func() {
		m.Send(addr.NodeAt(1), addr.Broadcast, payload)
		s.Run()
	}
	send()
	allocCeiling(t, "radio.Medium.Send broadcast + drain", 0, send)
	if want := 102 * 8 * len(payload); got != want {
		t.Fatalf("receivers got %d payload bytes, want %d", got, want)
	}
}

// TestAllocCeilingOLSRDuplicate pins the duplicate set: a warm node
// handling another copy of a flooded TC it already holds allocates
// nothing.
func TestAllocCeilingOLSRDuplicate(t *testing.T) {
	f := newFloodNode()
	orig := addr.NodeAt(10)
	f.tc(floodNbrs[0], orig, 1)
	if st := f.node.Stats(); st.TCFwd != 1 {
		t.Fatalf("the first copy was not processed and forwarded: %+v", st)
	}
	allocCeiling(t, "olsr.Node duplicate TC", 0, func() { f.tc(floodNbrs[1], orig, 1) })
	if st := f.node.Stats(); st.MsgDrop < 100 || st.TCFwd != 1 {
		t.Fatalf("the repeated copies were not dropped as duplicates: %+v", st)
	}
}

// TestAllocCeilingOLSRNextSequence pins the duplicate set's other steady
// state: a running node taking a known originator's next TC every 5s,
// in three copies, stores a new tuple in the originator's slot and
// expires the tuple 30s older, allocating nothing. The 5s includes the
// node's own HELLO, TC and expiry timers and its neighbors' HELLOs.
func TestAllocCeilingOLSRNextSequence(t *testing.T) {
	f := newFloodNode()
	f.node.Start()
	orig := addr.NodeAt(10)
	var seq uint16
	next := func() {
		f.sched.RunUntil(f.sched.Now() + 5*time.Second)
		f.refresh()
		seq++
		for _, nb := range floodNbrs {
			f.tc(nb, orig, seq)
		}
	}
	for range 10 { // past the 30s hold: tuples now expire as fast as they come
		next()
	}
	before := f.node.Stats()
	allocCeiling(t, "olsr.Node next-sequence TC", 0, next)
	if st := f.node.Stats(); st.TCFwd-before.TCFwd != 101 || st.MsgDrop-before.MsgDrop != 2*101 {
		t.Fatalf("each TC was not processed once and dropped twice as a duplicate: %+v, before %+v", st, before)
	}
}

// TestAllocCeilingOLSRHello pins the neighbor tables' steady state: a
// warm node taking another round of its neighbors' unchanged HELLOs
// allocates nothing.
func TestAllocCeilingOLSRHello(t *testing.T) {
	f := newFloodNode()
	if got := f.node.SymNeighbors(nil); len(got) != len(floodNbrs) {
		t.Fatalf("symmetric neighbors %v, want %v", got, floodNbrs)
	}
	allocCeiling(t, "olsr.Node HELLO refresh", 0, f.refresh)
	if st := f.node.Stats(); st.MsgRx < 100*uint64(len(floodNbrs)) {
		t.Fatalf("the refreshes were not received: %+v", st)
	}
}

// emissionAllocs steps f's node through its own HELLO, TC and expiry
// timers, with the neighbors' HELLOs refreshed before every step, until
// the node has emitted 100 messages of type typ after one warm-up
// emission. It returns the heap objects allocated per step that emitted
// one, counted as testing.AllocsPerRun counts; the other steps are not
// charged.
func emissionAllocs(t *testing.T, f *floodNode, typ wire.MessageType) float64 {
	t.Helper()
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var objects uint64
	for emitted := -1; emitted < runs; {
		f.refresh()
		f.sent = 0
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if !f.sched.Step() {
			t.Fatal("the node's timers stopped")
		}
		runtime.ReadMemStats(&ms)
		if f.sent != typ {
			continue
		}
		if emitted++; emitted > 0 {
			objects += ms.Mallocs - before
		}
	}
	return float64(objects / runs)
}

// TestAllocCeilingOLSRBodies pins a warm node's own emissions: building
// a HELLO from the link set, or a TC advertising the MPR selectors, in
// node scratch, then encoding it and handing it to the radio, allocates
// nothing.
func TestAllocCeilingOLSRBodies(t *testing.T) {
	for _, typ := range []wire.MessageType{wire.MsgHello, wire.MsgTC} {
		f := newFloodNode()
		f.node.Start()
		if got := emissionAllocs(t, f, typ); got > 0 {
			t.Errorf("olsr.Node %v emission: %.1f allocs/run, ceiling 0", typ, got)
		}
	}
}

// TestAllocCeilingOLSRTopology pins the topology set's steady state on a
// warm node, TCs forwarded included. A TC from a new originator carves
// that originator's destination table from the node's chunk, so it costs
// no growth allocations (the chunk's own allocation amortizes to under one
// per call). A TC from a known originator under a newer ANSN, whose
// advertised set fits the capacity that table was carved with, reuses it
// and allocates nothing.
func TestAllocCeilingOLSRTopology(t *testing.T) {
	f := newFloodNode()
	seq := uint16(1)
	orig := addr.NodeAt(1000)
	allocCeiling(t, "olsr.Node new-originator TC", 0, func() {
		orig++
		f.tc(floodNbrs[0], orig, seq)
	})
	allocCeiling(t, "olsr.Node newer-ANSN TC", 0, func() {
		seq++
		f.tcBody.ANSN++
		f.tc(floodNbrs[0], orig, seq)
	})
	if st := f.node.Stats(); st.TCFwd != 2*101 || st.MsgDrop != 0 {
		t.Fatalf("the TCs were not all processed and forwarded: %+v", st)
	}
	if got, want := len(f.node.TopologyLinks()), 101*len(f.tcBody.Advertised); got != want {
		t.Fatalf("%d topology links, want %d", got, want)
	}
}

// TestAllocCeilingAuditAppend pins the audit-log write path: on a warm
// unsealed log, appending a TC_RX record built from typed fields — the
// originator, the ANSN and a 20-node advertised list — renders it into
// the chunk with no intermediate string and allocates nothing (chunk and
// index growth amortize to under one allocation per call).
func TestAllocCeilingAuditAppend(t *testing.T) {
	var b auditlog.Buffer
	adv := make([]addr.Node, 20)
	for i := range adv {
		adv[i] = addr.NodeAt(3 + 7*i)
	}
	// The record is built per call, as the OLSR agent builds it per event.
	appendTCRx := func() {
		b.Append(auditlog.Record{
			T: 2500 * time.Millisecond, Node: addr.NodeAt(1), Kind: auditlog.KindTCRx,
			Fields: []auditlog.Field{
				auditlog.FNode("orig", addr.NodeAt(2)),
				auditlog.FInt("ansn", 7),
				auditlog.FNodes("adv", adv),
			},
		})
	}
	for i := 0; i < 5000; i++ {
		appendTCRx()
	}
	allocCeiling(t, "auditlog.Buffer.Append TC_RX", 0, appendTCRx)
	l, _ := b.LineAt(b.NextSeq() - 1)
	if want := "t=2.500s node=10.0.0.1 kind=TC_RX orig=10.0.0.2 ansn=7 adv=10.0.0.3,10.0.0.10,"; !strings.HasPrefix(l.Text, want) {
		t.Fatalf("stored %q, want prefix %q", l.Text, want)
	}
}

// TestAllocCeilingSealedLog pins audit-log sealing: on a warm sealed
// log, appending a record and reading the tree head allocate nothing
// (chunk, index and tree growth amortize to under one allocation per
// call), and neither does a proof built in a reused path buffer.
func TestAllocCeilingSealedLog(t *testing.T) {
	var b auditlog.Buffer
	b.SetSealKey(nil)
	r := auditlog.Record{
		T: 2500 * time.Millisecond, Node: addr.NodeAt(1), Kind: auditlog.KindHelloRx,
		Fields: []auditlog.Field{
			auditlog.FNode("from", addr.NodeAt(2)),
			auditlog.FNodes("sym", []addr.Node{addr.NodeAt(3), addr.NodeAt(4)}),
		},
	}
	for i := 0; i < 5000; i++ {
		b.Append(r)
	}
	var head auditlog.TreeHead
	allocCeiling(t, "auditlog.Buffer.Append sealed + TreeHead", 0, func() {
		b.Append(r)
		head = b.TreeHead()
	})
	size := b.SealedSize()
	if head.Size != size {
		t.Fatalf("TreeHead size %d, sealed %d", head.Size, size)
	}
	allocCeiling(t, "auditlog.Buffer.TreeHeadAt", 0, func() { head, _ = b.TreeHeadAt(size - 7) })
	// Each proof builds its path in a warm dst; building it in a fresh
	// one took 5 apiece.
	var proof auditlog.Proof
	dst := make([]auditlog.Hash, 0, 64)
	allocCeiling(t, "auditlog.Buffer.InclusionProof", 0, func() { proof, _ = b.InclusionProof(dst, 1234, size) })
	if leaf, _ := b.LeafAt(1234); !auditlog.VerifyInclusion(leaf, 1234, b.TreeHead(), proof) {
		t.Fatal("inclusion proof does not verify")
	}
	allocCeiling(t, "auditlog.Buffer.ConsistencyProof", 0, func() { proof, _ = b.ConsistencyProof(dst, 3001, size) })
	old, _ := b.TreeHeadAt(3001)
	if !auditlog.VerifyConsistency(old, b.TreeHead(), proof) {
		t.Fatal("consistency proof does not verify")
	}
}

// allocBudgetSpecs are the whole-run budget subjects, all small enough
// for the main test job: the detection-only linkspoof preset,
// fullstack (every-node detection, reputation gossip and a pinned
// attacker dropping ctrl traffic), and evidence, the same run with the
// evidence plane up, so sealed logs, tree-head gossip and proof-carrying
// replies are under a budget too.
func allocBudgetSpecs(t *testing.T) map[string]scenario.Spec {
	t.Helper()
	linkspoof, err := scenario.Resolve("linkspoof")
	if err != nil {
		t.Fatal(err)
	}
	fullstack := scenario.Spec{
		Name:       "alloc-fullstack",
		Seed:       1,
		Nodes:      16,
		Duration:   scenario.Dur(90 * time.Second),
		DetectAll:  true,
		Reputation: &scenario.ReputationSpec{Enabled: true},
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof", Node: 16, Mode: "phantom",
			At: scenario.Dur(45 * time.Second), Pin: true, DropCtrl: true,
		}},
	}
	evidence := fullstack
	evidence.Name = "alloc-evidence"
	evidence.Evidence = &scenario.EvidenceSpec{Enabled: true}
	return map[string]scenario.Spec{"linkspoof": linkspoof, "fullstack": fullstack, "evidence": evidence}
}

// allocBudget is one run's heap allocation: objects (MemStats.Mallocs)
// and bytes (MemStats.TotalAlloc).
type allocBudget struct {
	Objects uint64 `json:"objects"`
	Bytes   uint64 `json:"bytes"`
}

// measureRunAllocs counts the heap objects and bytes allocated by one
// scenario run, taking the minimum of two runs for each to shrug off
// warmup noise.
func measureRunAllocs(t *testing.T, spec scenario.Spec) allocBudget {
	t.Helper()
	best := allocBudget{Objects: ^uint64(0), Bytes: ^uint64(0)}
	var ms runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		objects, bytes := ms.Mallocs, ms.TotalAlloc
		if _, err := scenario.Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best.Objects = min(best.Objects, ms.Mallocs-objects)
		best.Bytes = min(best.Bytes, ms.TotalAlloc-bytes)
	}
	return best
}

// checkBudget fails a count more than 10% over its budget.
func checkBudget(t *testing.T, name, unit string, got, budget uint64) {
	t.Helper()
	if limit := budget + budget/10; got > limit {
		t.Errorf("%s: %d %s/run, budget %d (+10%% = %d) — fix the regression or re-record with -update-alloc-budget",
			name, got, unit, budget, limit)
	} else {
		t.Logf("%s: %d %s/run within budget %d", name, got, unit, budget)
	}
}

// TestAllocBudget gates whole-preset objects and bytes per run against
// the checked-in budget: >10% over on either fails. The margin absorbs
// map-growth jitter across toolchains; genuine regressions (a
// per-packet allocation on a hot path, a buffer kept that nothing
// reads) overshoot it by integer factors.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full preset runs")
	}
	const path = "testdata/alloc_budget.json"
	// Re-recording overwrites the whole file, so it reads nothing: a
	// budget in an older layout must not block its own replacement.
	budgets := map[string]allocBudget{}
	if !*updateAllocBudget {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v (run with -update-alloc-budget to record)", path, err)
		}
		if err := json.Unmarshal(raw, &budgets); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
	}

	measured := map[string]allocBudget{}
	for name, spec := range allocBudgetSpecs(t) {
		got := measureRunAllocs(t, spec)
		measured[name] = got
		if *updateAllocBudget {
			t.Logf("%s: recording %d allocs and %d bytes/run", name, got.Objects, got.Bytes)
			continue
		}
		budget, ok := budgets[name]
		if !ok {
			t.Errorf("%s: no recorded budget in %s — run with -update-alloc-budget", name, path)
			continue
		}
		checkBudget(t, name, "allocs", got.Objects, budget.Objects)
		checkBudget(t, name, "bytes", got.Bytes, budget.Bytes)
	}

	if *updateAllocBudget {
		out, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
