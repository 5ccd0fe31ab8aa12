// Command manetbench runs the repository's benchmark.
//
//	manetbench -workload <name|all> [-seed n] [-seconds n] [-trace 0|1] [-out results.jsonl]
//	manetbench compare parent.jsonl change.jsonl
//
// A run prints every metric as "name value unit" (with its sample count),
// then one JSON line: {"correct", "attempted", "failed", "metrics"}.
// -out appends the full result, stamped with the host, to a file that
// compare reads. Run it from the repository root (bench/run.sh builds and
// runs it there) or from bench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"

	"repro/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	fs := flag.NewFlagSet("manetbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the run's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long a run measures on the reference host")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	out := fs.String("out", "", "append the full JSON result to this file")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	root, err := bench.FindRoot(cwd)
	if err != nil {
		fail(err)
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fail(err)
	}
	res, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *traced == 1,
		Root:     root,
		Scratch:  scratch,
	})
	if err != nil {
		fail(err)
	}
	if err := report(res, *out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "manetbench:", err)
	os.Exit(1)
}

// report prints the result and appends it to out.
func report(res *bench.Result, out string) error {
	fmt.Printf("# workload %s seed %d seconds %d trace %v ops %d\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.Ops)
	fmt.Printf("# host %+v\n", res.Host)
	for _, l := range res.Lines() {
		fmt.Println(l)
	}
	fmt.Printf("# checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	if res.FirstFailure != "" {
		fmt.Printf("# first failure: %s\n", res.FirstFailure)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
		last.Metrics[name] = metric{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	if out != "" {
		full, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(full, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// runAll re-executes this binary once per workload, each in a fresh
// process, with the same flags.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	code := 0
	for _, w := range bench.Workloads {
		child := append([]string{}, args...)
		for i, a := range child {
			switch a {
			case "-workload", "--workload":
				if i+1 < len(child) {
					child[i+1] = w.Name()
				}
			case "-workload=all", "--workload=all":
				child[i] = "-workload=" + w.Name()
			}
		}
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "manetbench: workload %s: %v\n", w.Name(), err)
			code = 1
		}
	}
	return code
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: manetbench compare parent.jsonl change.jsonl")
		return 2
	}
	a, err := bench.ReadResults(args[0])
	if err != nil {
		fail(err)
	}
	b, err := bench.ReadResults(args[1])
	if err != nil {
		fail(err)
	}
	if bad := bench.Compare(os.Stdout, a, b); bad > 0 {
		fmt.Printf("%d end-to-end metric(s) worse or unresolved\n", bad)
		return 1
	}
	return 0
}
