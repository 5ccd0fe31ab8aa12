// Command manetsim runs the full packet-level simulation: an OLSR network
// over a simulated radio, an optional attacker, and the victim's
// log-based intrusion detector with trusted cooperative investigations.
//
//	manetsim                                 # 16 static nodes, phantom spoof
//	manetsim -attack claim -speed 2          # claim spoof, 2 m/s waypoint
//	manetsim -attack none -duration 2m      # honest network
//	manetsim -trials 8 -workers 4           # 8 seeded trials on 4 workers
//
// Declarative scenarios (internal/scenario) name a topology, mobility
// and radio model, attack mix, and duration in one data structure:
//
//	manetsim list                            # named presets
//	manetsim -scenario grayhole              # run a preset
//	manetsim -scenario ./my-scenario.json    # run a spec file
//	manetsim -scenario wormhole -trials 8    # seeded scenario campaign
//
// Every scenario run prints its canonical metrics digest; the preset
// digests are pinned under testdata/golden/ and enforced by CI.
//
// Flag mode maps its flags onto the same declarative Spec, so every run
// prints one report: traffic, signature alerts, investigation rounds,
// each suspect's verdict, and the digest. With -trials > 1 the scenario
// is repeated on the parallel experiment engine (DESIGN.md §6) with
// per-trial seeds from experiment.TrialSeed, and the per-trial digests
// are appended. -trace works in both modes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "list" {
		listScenarios()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "manetsim:", err)
		os.Exit(1)
	}
}

// listScenarios prints the preset registry.
func listScenarios() {
	fmt.Println("named scenario presets (run with -scenario <name>):")
	for _, s := range scenario.Presets() {
		d := s.WithDefaults()
		kind := d.Kind
		if kind == scenario.KindRounds {
			kind += " (use trustlab)"
		}
		fmt.Printf("  %-18s %-22s %s\n", s.Name, kind, s.Description)
	}
}

func run() error {
	camp := cliutil.Bind(flag.CommandLine, 1, "random seed (root seed with -trials > 1)").
		BindScenario("named preset or spec file (see `manetsim list`)").
		BindTrace("NDJSON run-trace output: a file with -trials 1, a directory of per-trial files otherwise")
	var (
		nodes    = flag.Int("nodes", 16, "population size")
		speed    = flag.Float64("speed", 0, "max node speed in m/s (0 = static)")
		duration = flag.Duration("duration", 4*time.Minute, "simulated time")
		attackAt = flag.Duration("attack-at", time.Minute, "when the attack starts")
		attackS  = flag.String("attack", "phantom", "attack: phantom, claim, omit or none")
		liars    = flag.Int("liars", 0, "colluding liars answering investigations falsely")
		trials   = flag.Int("trials", 1, "independent seeded runs of the scenario")
	)
	flag.Parse()

	eng := camp.Engine()
	if camp.HasScenario() {
		spec, err := camp.ResolvePacket()
		if err != nil {
			return err
		}
		fmt.Printf("scenario %s: %s\n", spec.Name, spec.Description)
		return runScenario(eng, camp, spec, *trials)
	}
	spec, err := flagSpec(camp.Seed, *nodes, *speed, *duration, *attackAt, *attackS, *liars)
	if err != nil {
		return err
	}
	fmt.Printf("manetsim: %d nodes, speed %.1f m/s, attack=%s at %s, %d liars, seed %d\n",
		*nodes, *speed, *attackS, *attackAt, *liars, camp.Seed)
	return runScenario(eng, camp, spec, *trials)
}

// flagSpec maps the flag-mode options onto a packet scenario: the victim
// at node 1 in a 500 m arena with a 200 m radio range and, unless attack
// is "none", a link spoofer as the last node, pinned beside the victim
// and dropping the investigation traffic it should relay. Nodes move by
// random waypoint between speed/2 and speed m/s with 5 s pauses, or
// stand still at speed 0. With the default flags this is the X1 mobility
// run at speed 0.
func flagSpec(seed int64, nodes int, speed float64, duration, attackAt time.Duration, attack string, liars int) (scenario.Spec, error) {
	spec := scenario.Spec{
		Name:       "fullstack",
		Seed:       seed,
		Nodes:      nodes,
		ArenaSide:  500,
		Duration:   scenario.Dur(duration),
		Radio:      scenario.RadioSpec{Range: 200},
		Liars:      liars,
		BinaryCtrl: true,
	}
	if speed > 0 {
		spec.Mobility = scenario.MobilitySpec{
			Model:    "waypoint",
			MinSpeed: speed / 2,
			MaxSpeed: speed,
			Pause:    scenario.DurPtr(5 * time.Second),
		}
	}
	switch attack {
	case "none":
	case "phantom", "claim", "omit":
		spec.Attacks = []scenario.AttackSpec{{
			Kind:     "linkspoof",
			Node:     nodes,
			Mode:     attack,
			At:       scenario.Dur(attackAt),
			Pin:      true,
			DropCtrl: true,
		}}
	default:
		return scenario.Spec{}, fmt.Errorf("unknown -attack %q", attack)
	}
	return spec, nil
}

// runScenario executes a packet scenario campaign and prints its report.
func runScenario(eng *experiment.Runner, camp *cliutil.Campaign, spec scenario.Spec, trials int) error {
	var results []*scenario.Result
	if camp.HasTrace() && trials <= 1 {
		// One run, one NDJSON file — the reprotrace workflow's input.
		sink, closeTrace, err := camp.OpenTrace()
		if err != nil {
			return err
		}
		res, err := scenario.RunTraced(spec, sink)
		if cerr := closeTrace(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d events)\n", camp.Trace, sink.Events())
		results = []*scenario.Result{res}
	} else {
		// With -trace, a trial fan writes one trace per trial into that
		// directory; the file layout is experiment.TraceFileName.
		var err error
		results, err = eng.ScenarioTrials(context.Background(), spec, trials, camp.Trace)
		if err != nil {
			return err
		}
		if camp.HasTrace() {
			fmt.Printf("traces: %s/%s .. %s\n", camp.Trace, experiment.TraceFileName(0), experiment.TraceFileName(trials-1))
		}
	}
	scenarioReport(results[0])
	if trials <= 1 {
		return nil
	}
	fmt.Println()
	fmt.Println("== campaign summary ==")
	for i, res := range results {
		fmt.Printf("trial %2d (seed %20d): digest %s\n", i, res.Seed, res.Digest().Hash)
	}
	return nil
}

// scenarioReport prints one scenario result with its digest.
func scenarioReport(res *scenario.Result) {
	fmt.Println()
	fmt.Println("== scenario report ==")
	fmt.Printf("  simulated:        %s (%d events)\n", res.SimTime, res.Events)
	fmt.Printf("  frames sent:      %d (%d delivered, %d lost)\n",
		res.Frames.FramesSent, res.Frames.FramesDelivered, res.Frames.FramesLost)
	fmt.Printf("  control frames:   %d\n", res.Ctrl.Sent)
	fmt.Printf("  log records:      %d\n", res.LogRecords)
	fmt.Printf("  investigations:   %d rounds\n", res.Investigations)
	if rep := res.Reputation; rep != nil {
		fmt.Printf("  reputation:       %d vectors, %d/%d entries accepted, %d recommenders flagged\n",
			rep.Vectors, rep.Accepted, rep.Accepted+rep.Rejected, rep.Flagged)
		fmt.Printf("  gossip standing:  %d/%d honest framed, %d/%d attackers shielded\n",
			rep.FramedHonest, rep.HonestCount, rep.ShieldedSuspects, rep.SuspectCount)
	}
	for _, a := range res.Alerts {
		fmt.Printf("  alert %-18s %d\n", a.Rule+":", a.Count)
	}
	for _, s := range res.Suspects {
		verdict := "not convicted"
		switch {
		case s.FalsePositive:
			verdict = fmt.Sprintf("FALSE POSITIVE at %s", s.ConvictedAt)
		case s.ConvictedAt >= 0:
			verdict = fmt.Sprintf("convicted at %s (%s after attack start)", s.ConvictedAt, s.ConvictedAt-s.AttackAt)
		}
		fmt.Printf("  suspect node %-3d %-10s trust %.3f — %s\n", s.Node, s.Kind, s.FinalTrust, verdict)
		for _, c := range s.Counters {
			fmt.Printf("    %s: %d\n", c.Name, c.Value)
		}
	}
	fmt.Printf("  digest:           %s\n", res.Digest().Hash)
}
