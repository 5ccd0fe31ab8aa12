// Command reprolint runs the repository's custom determinism and
// hot-path analyzers (DESIGN.md §12) as a multichecker over module
// packages:
//
//	go run ./cmd/reprolint ./...
//
// Findings print as file:line:col groups per analyzer; the exit status
// is 1 when any finding survives its suppression scan, 2 on usage or
// load errors, 0 on a clean tree. Suppressions are explicit and
// auditable: //reprolint:ignore <analyzer> <reason>.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/allocann"
	"repro/internal/lint/analysis"
	"repro/internal/lint/detmapiter"
	"repro/internal/lint/detseed"
	"repro/internal/lint/detwalltime"
	"repro/internal/lint/load"
)

func main() {
	verbose := flag.Bool("v", false, "print per-package progress and the analyzer roster")
	flag.Usage = usage
	flag.Parse()
	os.Exit(run(flag.Args(), *verbose))
}

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detwalltime.Analyzer,
		detmapiter.Analyzer,
		detseed.Analyzer,
		allocann.Analyzer,
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: reprolint [-v] [packages]\n\n")
	fmt.Fprintf(os.Stderr, "Analyzers:\n")
	for _, a := range analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nDeterministic packages (detwalltime/detmapiter/detseed scope):\n")
	for _, p := range lint.DeterministicPackages() {
		fmt.Fprintf(os.Stderr, "  %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "\nSuppression: //reprolint:ignore <analyzer> <reason>\n")
}

func run(patterns []string, verbose bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := load.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "reprolint: %d analyzers over %d packages\n", len(analyzers()), len(paths))
	}
	var pkgs []*load.Package
	loadFailed := false
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: load %s: %v\n", p, err)
			loadFailed = true
			continue
		}
		if len(pkg.Errs) > 0 {
			for _, e := range pkg.Errs {
				fmt.Fprintf(os.Stderr, "reprolint: typecheck %s: %v\n", p, e)
			}
			loadFailed = true
			continue
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "reprolint: loaded %s\n", p)
		}
		pkgs = append(pkgs, pkg)
	}
	if loadFailed {
		return 2
	}

	findings, err := lint.RunAnalyzers(pkgs, analyzers(), loader.Fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 2
	}
	if len(findings) == 0 {
		return 0
	}
	// Group output by analyzer, findings as relative file:line:col.
	current := ""
	for _, f := range findings {
		if f.Analyzer != current {
			if current != "" {
				fmt.Println()
			}
			current = f.Analyzer
			fmt.Printf("%s:\n", current)
		}
		file := f.Pos.Filename
		if rel, err := filepath.Rel(loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Printf("  %s:%d:%d: %s\n", file, f.Pos.Line, f.Pos.Column, f.Message)
	}
	fmt.Printf("\nreprolint: %d finding(s)\n", len(findings))
	return 1
}
