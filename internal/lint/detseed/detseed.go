// Package detseed polices RNG stream construction in the deterministic
// packages: every seed must flow from the run's seed-derivation chain,
// and no *rand.Rand stream may escape into a goroutine.
//
// The repro engine gives every (experiment, node, trial) tuple its own
// seed through DeriveSeed/TrialSeed/TaskSeed; a rand.NewSource fed a
// literal, a counter, or (worst) wall-clock time silently decouples a
// stream from the spec seed and makes -seed reruns lie. The check is
// structural: a seed expression is accepted when it contains a call to
// one of the derivation functions or an identifier/field whose name
// contains "seed" (parameters named seed are the trusted conduit —
// their call sites are checked where the value is produced).
//
// A *rand.Rand captured by a `go` closure is flagged unconditionally:
// streams are single-threaded state; the engine parallelizes across
// trials, never inside a stream (DESIGN.md §1, §12).
package detseed

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// Analyzer is the detseed check.
var Analyzer = &analysis.Analyzer{
	Name: "detseed",
	Doc: "flag rand.NewSource seeds that do not flow from DeriveSeed/" +
		"TrialSeed/a seed field, and *rand.Rand values captured by go closures, " +
		"in deterministic packages",
	Run: run,
}

// derivers are the blessed seed-derivation functions, keyed by bare name
// in any package (scenario.DeriveSeed, experiment.TrialSeed,
// Runner.TaskSeed...).
var derivers = map[string]bool{
	"DeriveSeed": true,
	"TrialSeed":  true,
	"TaskSeed":   true,
}

// seedConstructors are the math/rand (v1 and v2) functions whose
// arguments are seeds.
var seedConstructors = map[string]bool{
	"NewSource": true,
	"NewPCG":    true,
}

func run(pass *analysis.Pass) error {
	if !lint.Deterministic(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkSeedSource(pass, v)
			case *ast.GoStmt:
				if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
					checkGoCapture(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkSeedSource validates the seed argument of rand.NewSource /
// rand.NewPCG calls.
func checkSeedSource(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, isPkg := analysis.PkgNameOf(pass.TypesInfo, sel.X)
	if !isPkg || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") {
		return
	}
	if !seedConstructors[sel.Sel.Name] {
		return
	}
	for _, arg := range call.Args {
		if !seedExprOK(arg) {
			pass.Reportf(call.Pos(), "rand.%s seed in deterministic package %s does not "+
				"flow from DeriveSeed/TrialSeed/a seed field: streams must derive from "+
				"the spec seed or -seed reruns diverge", sel.Sel.Name, pass.Path)
			return
		}
	}
}

// seedExprOK reports whether the seed expression visibly derives from
// the seed chain: a deriver call, or any identifier/selector whose name
// mentions "seed".
func seedExprOK(e ast.Expr) bool {
	ok := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if derivers[fun.Name] {
					ok = true
				}
			case *ast.SelectorExpr:
				if derivers[fun.Sel.Name] {
					ok = true
				}
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(v.Name), "seed") {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// checkGoCapture flags identifiers inside a go-closure whose object is
// a *rand.Rand declared outside the closure.
func checkGoCapture(pass *analysis.Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || reported[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the closure (or a parameter of it)
		}
		if !isRandPtr(obj.Type()) {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "*rand.Rand %q captured by go closure in deterministic "+
			"package %s: streams are single-threaded state; derive a per-goroutine "+
			"stream from the seed chain instead", obj.Name(), pass.Path)
		return true
	})
}

// isRandPtr reports whether t is *math/rand.Rand (v1 or v2).
func isRandPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	pkg, name := analysis.NamedPath(p.Elem())
	return name == "Rand" && (pkg == "math/rand" || pkg == "math/rand/v2")
}
