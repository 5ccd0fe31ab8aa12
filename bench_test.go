package repro

// Benchmark harness: one benchmark per figure in the paper's evaluation
// (§V has Figures 1-3 and no tables) plus the extension experiments of
// DESIGN.md §4 and microbenchmarks of the hot substrate paths. Run with
//
//	go test -bench=. -benchmem
//
// Each figure benchmark regenerates the full data series the paper plots;
// EXPERIMENTS.md records the series and the paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/experiment"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/olsr"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trust"
	"repro/internal/wire"
)

// BenchmarkFig1Trustworthiness regenerates Figure 1: trust evolution over
// 25 rounds with a sustained link-spoofing attack and 4 liars.
func BenchmarkFig1Trustworthiness(b *testing.B) {
	cfg := experiment.DefaultConfig()
	eng := experiment.NewRunner(cfg.Seed, 0)
	for i := 0; i < b.N; i++ {
		res := eng.Fig1(cfg)
		if res.LiarFinalMax > 0.1 {
			b.Fatalf("figure shape broken: liar final %v", res.LiarFinalMax)
		}
	}
}

// BenchmarkFig2ForgettingFactor regenerates Figure 2: relaxation toward
// the 0.4 default after the attack ceases.
func BenchmarkFig2ForgettingFactor(b *testing.B) {
	cfg := experiment.DefaultConfig()
	eng := experiment.NewRunner(cfg.Seed, 0)
	for i := 0; i < b.N; i++ {
		res := eng.Fig2(cfg)
		if !res.HighReachedDefault {
			b.Fatal("figure shape broken: no relaxation to default")
		}
	}
}

// BenchmarkFig3LiarImpact regenerates Figure 3: the Eq. 8 detection value
// per round for liar counts 1, 4 and 7 of 16 nodes.
func BenchmarkFig3LiarImpact(b *testing.B) {
	cfg := experiment.DefaultConfig()
	eng := experiment.NewRunner(cfg.Seed, 0)
	for i := 0; i < b.N; i++ {
		res := eng.Fig3(cfg, []int{1, 4, 7})
		for name, final := range res.Final {
			if final > -0.7 {
				b.Fatalf("figure shape broken: %s final %v", name, final)
			}
		}
	}
}

// BenchmarkXMobilityImpact is extension X1: one packet-level run with
// random-waypoint mobility, measuring the whole detection pipeline.
func BenchmarkXMobilityImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(fullStackSpec(int64(i+1), 2, 2*time.Minute, 45*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXOverhead is extension X2: control-plane and routing overhead
// on a 16-node network with one investigation campaign.
func BenchmarkXOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiment.NewRunner(int64(i+1), 0).OverheadSweep([]int{16})
		if pts[0].OLSRMessages == 0 {
			b.Fatal("no routing traffic")
		}
	}
}

// BenchmarkXConfidenceInterval is extension X3: margin and
// unrecognized-zone occupancy across confidence levels and sample sizes.
func BenchmarkXConfidenceInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.NewRunner(int64(i+1), 0).CISweep([]float64{0.90, 0.95, 0.99}, []int{5, 15, 45}, 0.26)
	}
}

// BenchmarkXAblationUnweighted is extension X4: Eq. 8 with and without
// trust weighting on the Fig-3 scenario.
func BenchmarkXAblationUnweighted(b *testing.B) {
	cfg := experiment.DefaultConfig()
	eng := experiment.NewRunner(cfg.Seed, 0)
	for i := 0; i < b.N; i++ {
		res := eng.Ablation(cfg)
		if res.FinalWeighted >= res.FinalUniform {
			b.Fatal("ablation shape broken")
		}
	}
}

// BenchmarkXAblationCumulativeCI is extension X4b: the §IV-C loop under
// cumulative versus single-round confidence intervals.
func BenchmarkXAblationCumulativeCI(b *testing.B) {
	cfg := experiment.DefaultConfig()
	eng := experiment.NewRunner(cfg.Seed, 0)
	for i := 0; i < b.N; i++ {
		res := eng.CIAccumulationAblation(cfg)
		if res.CumulativeRound < 0 {
			b.Fatal("cumulative CI never convicted")
		}
	}
}

// BenchmarkXBaselineAttacks is extension X5: signature detection of the
// storm and drop baseline attacks on the packet-level stack.
func BenchmarkXBaselineAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.NewRunner(int64(i+1), 0).Baselines()
		if !res.StormFlagged {
			b.Fatal("storm undetected")
		}
	}
}

// --- parallel experiment engine (DESIGN.md §6) ---

// engineWorkerCounts are the pool sizes the engine benchmarks compare.
// On multicore hardware the higher counts should show near-linear
// speedup; the output is bit-identical at every count.
func engineWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkEngineCISweep scales the X3 confidence-interval sweep across
// worker counts: 9 sweep points × 50 trials of cheap numeric tasks, the
// fine-grained end of the engine's workload spectrum.
func BenchmarkEngineCISweep(b *testing.B) {
	for _, workers := range engineWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := experiment.NewRunner(1, workers)
			for i := 0; i < b.N; i++ {
				eng.CISweep([]float64{0.90, 0.95, 0.99}, []int{30, 100, 300}, 0.26)
			}
		})
	}
}

// BenchmarkEngineFigures scales the Figures 1–3 fan-out (trustlab
// -figure all): two single-scenario tasks plus five Figure 3 liar counts.
func BenchmarkEngineFigures(b *testing.B) {
	cfg := experiment.DefaultConfig()
	for _, workers := range engineWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := experiment.NewRunner(cfg.Seed, workers)
			for i := 0; i < b.N; i++ {
				if _, err := eng.Figures(context.Background(), cfg, []int{1, 2, 4, 6, 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineOverheadSweep scales the X2 sweep: four packet-level
// simulations per iteration, the coarse-grained end where each task is a
// whole discrete-event run and speedup should track the worker count.
func BenchmarkEngineOverheadSweep(b *testing.B) {
	for _, workers := range engineWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := experiment.NewRunner(1, workers)
			for i := 0; i < b.N; i++ {
				pts := eng.OverheadSweep([]int{8, 8, 8, 8})
				if pts[0].OLSRMessages == 0 {
					b.Fatal("no routing traffic")
				}
			}
		})
	}
}

// --- radio medium: spatial grid vs reference scan (DESIGN.md §2.4) ---

// benchMedium builds a medium with n static stations at constant density
// (the scale-preset density: 200 nodes per 2000 m² arena at 200 m range)
// so the mean degree stays put while the population grows — exactly the
// regime where the scan's O(n) per broadcast should hurt and the grid's
// O(degree) should not.
func benchMedium(n int, grid bool) (*sim.Scheduler, *radio.Medium) {
	sched := sim.New(1)
	m := radio.NewMedium(sched, radio.Config{
		Prop: radio.UnitDisk{Range: 200},
		Grid: grid,
	})
	side := 141.4 * math.Sqrt(float64(n))
	arena := geo.Arena(side, side)
	rng := rand.New(rand.NewSource(42)) //nolint:gosec // benchmark
	for i := 1; i <= n; i++ {
		p := arena.RandPoint(rng)
		m.Attach(addr.NodeAt(i), func() geo.Point { return p }, func(radio.Frame) {})
	}
	return sched, m
}

// BenchmarkMediumBroadcast compares broadcast cost per implementation and
// population. Run with -benchmem: the PR-3 acceptance bar is a ≥5×
// grid-over-scan speedup at N=500.
func BenchmarkMediumBroadcast(b *testing.B) {
	payload := make([]byte, 64)
	for _, n := range []int{50, 200, 500} {
		for _, impl := range []string{"scan", "grid"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, impl), func(b *testing.B) {
				sched, m := benchMedium(n, impl == "grid")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Send(addr.NodeAt(i%n+1), addr.Broadcast, payload)
					sched.Run() // drain delivery events
				}
			})
		}
	}
}

// BenchmarkNeighbors measures the range query per implementation, using
// the append-into variant the hot paths are expected to call.
func BenchmarkNeighbors(b *testing.B) {
	const n = 200
	for _, impl := range []string{"scan", "grid"} {
		b.Run(impl, func(b *testing.B) {
			_, m := benchMedium(n, impl == "grid")
			buf := make([]addr.Node, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.NeighborsInto(addr.NodeAt(i%n+1), buf[:0])
			}
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkWireEncodeHello measures the RFC 3626 HELLO codec round trip.
func BenchmarkWireEncodeHello(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := p.Encode()
		if _, err := wire.DecodePacket(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrustDetect measures the Eq. 8 aggregation over 15 responders.
func BenchmarkTrustDetect(b *testing.B) {
	obs := make([]trust.Observation, 15)
	for i := range obs {
		e := -1.0
		if i%4 == 0 {
			e = 1
		}
		obs[i] = trust.Observation{Source: addr.NodeAt(i + 2), Trust: 0.4, Evidence: e}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := trust.Detect(obs); !ok {
			b.Fatal("no detect value")
		}
	}
}

// BenchmarkOLSRConvergence measures a 16-node OLSR network converging for
// 30 simulated seconds (routing-table calculation dominated).
func BenchmarkOLSRConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := sim.New(int64(i + 1))
		medium := radio.NewMedium(sched, radio.Config{Prop: radio.UnitDisk{Range: 160}})
		arena := geo.Arena(400, 400)
		pts := mobility.GridPlacement(arena, 16)
		nodes := make([]*olsr.Node, 16)
		for j := 0; j < 16; j++ {
			id := addr.NodeAt(j + 1)
			n := olsr.New(olsr.Config{Addr: id}, sched, func(bs []byte) {
				// The node reuses its encode buffer; the medium retains
				// payloads until delivery, so send a copy.
				medium.Send(id, addr.Broadcast, append([]byte(nil), bs...))
			}, nil)
			pt := pts[j]
			nodes[j] = n
			medium.Attach(id, func() geo.Point { return pt }, func(f radio.Frame) {
				n.HandlePacket(f.From, f.Payload)
			})
		}
		for _, n := range nodes {
			n.Start()
		}
		sched.RunUntil(30 * time.Second)
		if len(nodes[0].Routes()) == 0 {
			b.Fatal("no routes after convergence")
		}
	}
}

// BenchmarkScenarioLinkspoof runs the headline scenario preset end to
// end: the per-preset cost that bounds the golden corpus' CI time.
func BenchmarkScenarioLinkspoof(b *testing.B) {
	spec, err := scenario.Resolve("linkspoof")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Suspects[0].ConvictedAt < 0 {
			b.Fatal("spoofer not convicted")
		}
	}
}

// BenchmarkScenarioTrace prices the run-trace plane (DESIGN.md §13):
// the headline preset with the sink off (the nil-tracer branch every
// emission site pays) and on (a Recorder accumulating the full NDJSON
// stream). BENCH_PR10.json records the off/on overhead.
func BenchmarkScenarioTrace(b *testing.B) {
	spec, err := scenario.Resolve("linkspoof")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := &trace.Recorder{}
			if _, err := scenario.RunTraced(spec, rec); err != nil {
				b.Fatal(err)
			}
			if rec.Len() == 0 {
				b.Fatal("no events recorded")
			}
		}
	})
}

// BenchmarkScenarioReputation prices the reputation plane (DESIGN.md
// §9): the same 16-node spoofing scenario with the plane off and on
// (vector gossip + deviation testing + Eq. 6/7 bootstrapping on every
// node). The delta is what recommendation exchange costs end to end.
func BenchmarkScenarioReputation(b *testing.B) {
	base := scenario.Spec{
		Name:      "bench-reputation",
		Seed:      1,
		Nodes:     16,
		Duration:  scenario.Dur(2 * time.Minute),
		DetectAll: true,
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof", Node: 16, Mode: "phantom",
			At: scenario.Dur(45 * time.Second), Pin: true, DropCtrl: true,
		}},
	}
	for _, arm := range []string{"off", "on"} {
		spec := base
		if arm == "on" {
			spec.Reputation = &scenario.ReputationSpec{Enabled: true}
		}
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioMatrix regenerates the whole golden corpus on the
// parallel engine — what CI's golden job pays per PR.
func BenchmarkScenarioMatrix(b *testing.B) {
	specs := scenario.PacketPresets()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.NewRunner(0, workers).ScenarioMatrix(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimScheduler measures raw event throughput of the kernel.
func BenchmarkSimScheduler(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}
