// Command trustlab regenerates the data series behind the paper's
// evaluation figures (§V):
//
//	trustlab -figure 1          # Fig 1: trustworthiness under attack
//	trustlab -figure 2          # Fig 2: forgetting-factor relaxation
//	trustlab -figure 3          # Fig 3: impact of liars on detection
//	trustlab -figure all -csv   # everything, as CSV
//	trustlab -scenario paper-figures   # the same, from a rounds scenario spec
//
// The output is the per-round data the paper plots, plus the shape checks
// recorded in EXPERIMENTS.md.
//
// Figures are regenerated on the parallel experiment engine (DESIGN.md
// §6); -workers sets the pool size and the output is identical at any
// worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/experiment"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trustlab:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested figures to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trustlab", flag.ExitOnError)
	camp := cliutil.Bind(fs, 1, "random seed").
		BindScenario("rounds-kind scenario preset or spec file (e.g. paper-figures)").
		BindTrace("NDJSON run-trace output (trust updates + per-round detection; byte-stable only with -workers 1)")
	var (
		figure = fs.String("figure", "all", "which figure to regenerate: 1, 2, 3 or all")
		nodes  = fs.Int("nodes", 16, "population size (paper: 16)")
		liars  = fs.Int("liars", 4, "colluding liars for figures 1-2 (paper: 4)")
		rounds = fs.Int("rounds", 25, "investigation rounds (paper: 25)")
		loss   = fs.Float64("loss", 0.1, "probability an answer is lost")
		csv    = fs.Bool("csv", false, "emit CSV instead of a text table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiment.DefaultConfig()
	cfg.Seed = camp.Seed
	cfg.Nodes = *nodes
	cfg.Liars = *liars
	cfg.Rounds = *rounds
	cfg.NonAnswerProb = *loss

	eng := camp.Engine()

	// With -figure all the three figures run as one engine fan-out; single
	// figures still go through the pool (Figure 3 fans its liar counts).
	fig3Counts := experiment.DefaultLiarCounts()

	// A declarative scenario overrides the ad-hoc flags wholesale: the
	// spec names the population, liar count, rounds, answer loss, trust
	// constants and the Figure-3 liar sweep. An explicit -seed still
	// wins, so seeded campaigns over one spec stay a one-flag affair.
	if camp.HasScenario() {
		spec, converted, liarCounts, err := camp.ResolveRounds()
		if err != nil {
			return err
		}
		cfg = converted
		if len(liarCounts) > 0 {
			fig3Counts = liarCounts
		}
		fmt.Fprintf(w, "scenario %s: %s\n", spec.Name, spec.Description)
	}

	// Tracing the rounds abstraction: one sink serves every figure task
	// of the invocation (the Config doc explains the workers-1 caveat).
	// Attached after the scenario override so a spec-derived cfg is
	// traced too.
	if camp.HasTrace() {
		sink, closeTrace, err := camp.OpenTrace()
		if err != nil {
			return err
		}
		cfg.Trace = sink
		defer func() {
			if cerr := closeTrace(); cerr != nil {
				fmt.Fprintln(os.Stderr, "trustlab:", cerr)
			} else {
				fmt.Fprintf(w, "trace: %s (%d events)\n", camp.Trace, sink.Events())
			}
		}()
	}

	render := func(t *metrics.Table) {
		if *csv {
			fmt.Fprint(w, t.CSV())
		} else {
			fmt.Fprint(w, t.Render())
		}
		fmt.Fprintln(w)
	}

	want := func(f string) bool { return *figure == "all" || *figure == f }
	ran := false
	var f1 *experiment.Fig1Result
	var f2 *experiment.Fig2Result
	var f3 *experiment.Fig3Result
	if *figure == "all" {
		all, err := eng.Figures(context.Background(), cfg, fig3Counts)
		if err != nil {
			return err
		}
		f1, f2, f3 = all.Fig1, all.Fig2, all.Fig3
	} else {
		if want("1") {
			f1 = eng.Fig1(cfg)
		}
		if want("2") {
			f2 = eng.Fig2(cfg)
		}
		if want("3") {
			f3 = eng.Fig3(cfg, fig3Counts)
		}
	}

	if f1 != nil {
		ran = true
		res := f1
		render(res.Table)
		fmt.Fprintf(w, "shape: liar final max = %.3f (paper: near 0 regardless of initial trust)\n",
			res.LiarFinalMax)
		fmt.Fprintf(w, "shape: honest trust monotone ascending = %v\n", res.HonestMonotone)
		fmt.Fprintf(w, "shape: lowest-initial honest node %.2f -> %.2f (paper: \"gains a little\")\n\n",
			res.HonestLowGain.Initial, res.HonestLowGain.Final)
	}
	if f2 != nil {
		ran = true
		res := f2
		render(res.Table)
		fmt.Fprintf(w, "shape: high/medium initial reached the %.1f default = %v\n",
			cfg.Params.Default, res.HighReachedDefault)
		fmt.Fprintf(w, "shape: low initial still below default = %v (paper: \"recovered slowly\")\n\n",
			res.LowStillBelow)
	}
	if f3 != nil {
		ran = true
		res := f3
		render(res.Table)
		names := make([]string, 0, len(res.Final))
		for name := range res.Final {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "shape: %s reached -0.4 at round %d, final %.3f (paper: <=10, ~-0.8)\n",
				name, res.RoundToMinus04[name], res.Final[name])
		}
	}
	if !ran {
		return fmt.Errorf("unknown -figure %q (want 1, 2, 3 or all)", *figure)
	}
	return nil
}
