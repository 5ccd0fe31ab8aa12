// Package lint wires the reprolint analyzer suite together: the
// catalog of deterministic packages the rules bind, the auditable
// //reprolint:ignore suppression mechanism, and the runner that applies
// a set of analyzers to loaded packages and returns position-sorted
// findings.
//
// The discipline itself is documented in DESIGN.md §12; the analyzers
// live in the sibling packages detwalltime, detmapiter, detseed and
// allocann, each built on internal/lint/analysis.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// detPackages is the closed set of packages that must be bit-for-bit
// reproducible: the event kernel, the protocol and attack planes, every
// codec feeding the golden digests, and the scenario builder with the
// address and geometry types it feeds every digest through. The service
// layer (campaign, manetd, cliutil, cmd/...) and the experiment
// orchestration (which owns wall-clock-free parallelism already pinned
// by its own determinism tests) are exempt by omission.
var detPackages = map[string]bool{
	"repro/internal/sim":        true,
	"repro/internal/core":       true,
	"repro/internal/detect":     true,
	"repro/internal/trust":      true,
	"repro/internal/reputation": true,
	"repro/internal/olsr":       true,
	"repro/internal/radio":      true,
	"repro/internal/attack":     true,
	"repro/internal/mobility":   true,
	"repro/internal/auditlog":   true,
	"repro/internal/wire":       true,
	"repro/internal/trace":      true,
	"repro/internal/signature":  true,
	"repro/internal/scenario":   true,
	"repro/internal/addr":       true,
	"repro/internal/geo":        true,
}

// Deterministic reports whether the deterministic-package rules
// (detwalltime, detmapiter, detseed) apply to the import path.
func Deterministic(importPath string) bool { return detPackages[importPath] }

// DeterministicPackages returns the sorted catalog, for docs and -help.
func DeterministicPackages() []string {
	out := make([]string, 0, len(detPackages))
	for p := range detPackages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Finding is one reported diagnostic, resolved to a printable position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// ignoreMarker introduces a suppression comment:
//
//	//reprolint:ignore <analyzer> <reason>
//
// It silences diagnostics of <analyzer> ("all" for any analyzer) on the
// comment's own line and on the line directly below it — so it works
// both trailing the flagged statement and standing alone above it. The
// reason is mandatory; a marker without one is itself a finding, which
// keeps every suppression auditable.
const ignoreMarker = "//reprolint:ignore"

type suppression struct {
	file     string
	line     int
	analyzer string
}

// scanSuppressions extracts the ignore markers of a package's files.
// Malformed markers come back as findings under the "reprolint"
// pseudo-analyzer and never suppress anything.
func scanSuppressions(fset *token.FileSet, files []*ast.File) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreMarker)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "reprolint",
						Pos:      pos,
						Message:  "malformed suppression: want \"//reprolint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				sups = append(sups, suppression{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
			}
		}
	}
	return sups, bad
}

// suppressed reports whether a finding at pos from analyzer an is
// covered by one of the scanned markers.
func suppressed(sups []suppression, an string, pos token.Position) bool {
	for _, s := range sups {
		if s.file != pos.Filename {
			continue
		}
		if s.analyzer != an && s.analyzer != "all" {
			continue
		}
		if s.line == pos.Line || s.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package, resolves the
// suppression markers, and returns the surviving findings sorted by
// analyzer, file and position.
func RunAnalyzers(pkgs []*load.Package, analyzers []*analysis.Analyzer, fset *token.FileSet) ([]Finding, error) {
	var findings []Finding
	seen := make(map[Finding]bool)
	for _, pkg := range pkgs {
		sups, bad := scanSuppressions(fset, pkg.Files)
		findings = append(findings, bad...)
		for _, an := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  an,
				Fset:      fset,
				Path:      pkg.Path,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := an.Run(pass); err != nil {
				return nil, err
			}
			for _, d := range pass.Diagnostics() {
				pos := fset.Position(d.Pos)
				if suppressed(sups, an.Name, pos) {
					continue
				}
				// Nested constructs (a map range inside a map range) can
				// report one site twice; keep the first.
				f := Finding{Analyzer: an.Name, Pos: pos, Message: d.Message}
				if !seen[f] {
					seen[f] = true
					findings = append(findings, f)
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return findings, nil
}
