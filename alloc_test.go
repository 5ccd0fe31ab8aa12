package repro

// Allocation-regression tier (DESIGN.md §10): the hot-path memory
// architecture — dense node indices, slab trust state, arena reuse,
// binary control codecs — bought a >5× cut in allocs/run (BENCH_PR6.json).
// These tests pin that win so it cannot silently erode:
//
//   - TestAllocCeiling*: testing.AllocsPerRun hard ceilings on the
//     steady-state hot functions. Most are zero — a warm store, ledger,
//     or encoder must not allocate at all.
//   - TestAllocBudget: whole-preset allocation budgets. Runs small
//     full-stack presets, counts runtime.MemStats.Mallocs, and fails on
//     a >10% regression over testdata/alloc_budget.json. Re-record an
//     intentional change with -update-alloc-budget (make alloc-update).
//
// The detect round-finalize ceiling lives in internal/detect (it needs
// the package's investigation fixture). Run the whole tier with
// `make alloc`.

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/reputation"
	"repro/internal/scenario"
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
// the whole-store relaxation walk are allocation-free on a warm store.
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
	allocCeiling(t, "trust.Store.RelaxAll", 0, func() { s.RelaxAll() })
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
	led := reputation.NewLedger(addr.NodeAt(1), direct, reputation.Config{})
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

// allocBudgetSpecs are the whole-run budget subjects: one detection-only
// preset and one with every plane up (evidence + reputation + binary
// ctrl), both small enough for the main test job.
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
	return map[string]scenario.Spec{"linkspoof": linkspoof, "fullstack": fullstack}
}

// measureRunAllocs counts heap objects allocated by one scenario run,
// taking the minimum of two runs to shrug off warmup noise.
func measureRunAllocs(t *testing.T, spec scenario.Spec) uint64 {
	t.Helper()
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := scenario.Run(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if d := ms.Mallocs - before; d < best {
			best = d
		}
	}
	return best
}

// TestAllocBudget gates whole-preset allocs/run against the checked-in
// budget: >10% over fails. The margin absorbs map-growth jitter across
// toolchains; genuine regressions (a per-packet allocation on a hot
// path) overshoot it by integer factors.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full preset runs")
	}
	const path = "testdata/alloc_budget.json"
	budgets := map[string]uint64{}
	raw, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(raw, &budgets); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
	} else if !*updateAllocBudget {
		t.Fatalf("read %s: %v (run with -update-alloc-budget to record)", path, err)
	}

	measured := map[string]uint64{}
	for name, spec := range allocBudgetSpecs(t) {
		got := measureRunAllocs(t, spec)
		measured[name] = got
		if *updateAllocBudget {
			t.Logf("%s: recording %d allocs/run", name, got)
			continue
		}
		budget, ok := budgets[name]
		if !ok {
			t.Errorf("%s: no recorded budget in %s — run with -update-alloc-budget", name, path)
			continue
		}
		if limit := budget + budget/10; got > limit {
			t.Errorf("%s: %d allocs/run, budget %d (+10%% = %d) — fix the regression or re-record with -update-alloc-budget",
				name, got, budget, limit)
		} else {
			t.Logf("%s: %d allocs/run within budget %d", name, got, budget)
		}
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
