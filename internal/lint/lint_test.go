package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const supSrc = `package p

//reprolint:ignore detmapiter counters are commutative here
var a int

//reprolint:ignore detwalltime
var b int

//reprolint:ignore all bridging shim, validated elsewhere
var c int
`

func parseSup(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", supSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestScanSuppressions(t *testing.T) {
	fset, files := parseSup(t)
	sups, bad := scanSuppressions(fset, files)
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2: %+v", len(sups), sups)
	}
	if sups[0].analyzer != "detmapiter" || sups[0].line != 3 {
		t.Errorf("sups[0] = %+v, want detmapiter at line 3", sups[0])
	}
	if sups[1].analyzer != "all" || sups[1].line != 9 {
		t.Errorf("sups[1] = %+v, want all at line 9", sups[1])
	}
	if len(bad) != 1 {
		t.Fatalf("got %d malformed findings, want 1: %+v", len(bad), bad)
	}
	if bad[0].Analyzer != "reprolint" || bad[0].Pos.Line != 6 ||
		!strings.Contains(bad[0].Message, "malformed suppression") {
		t.Errorf("malformed finding = %+v", bad[0])
	}
}

func TestSuppressed(t *testing.T) {
	sups := []suppression{{file: "sup.go", line: 10, analyzer: "detmapiter"}}
	at := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line}
	}
	if !suppressed(sups, "detmapiter", at("sup.go", 10)) {
		t.Error("same-line finding not suppressed")
	}
	if !suppressed(sups, "detmapiter", at("sup.go", 11)) {
		t.Error("next-line finding not suppressed")
	}
	if suppressed(sups, "detmapiter", at("sup.go", 12)) {
		t.Error("two lines below wrongly suppressed")
	}
	if suppressed(sups, "detwalltime", at("sup.go", 10)) {
		t.Error("different analyzer wrongly suppressed")
	}
	if suppressed(sups, "detmapiter", at("other.go", 10)) {
		t.Error("different file wrongly suppressed")
	}
	all := []suppression{{file: "sup.go", line: 10, analyzer: "all"}}
	if !suppressed(all, "detseed", at("sup.go", 10)) {
		t.Error("analyzer \"all\" does not cover detseed")
	}
}

func TestDeterministicCatalog(t *testing.T) {
	pkgs := DeterministicPackages()
	if len(pkgs) != 16 {
		t.Fatalf("catalog has %d packages, want 16: %v", len(pkgs), pkgs)
	}
	for _, p := range pkgs {
		if !Deterministic(p) {
			t.Errorf("catalog entry %s not Deterministic", p)
		}
	}
	for _, p := range []string{
		"repro/internal/campaign", "repro/internal/manetd",
		"repro/internal/cliutil", "repro/cmd/manetd", "repro/internal/experiment",
	} {
		if Deterministic(p) {
			t.Errorf("service-layer package %s wrongly in the deterministic set", p)
		}
	}
}
