// Package detmapiter flags `range` over a map whose loop body has
// order-dependent effects, inside the deterministic packages.
//
// Go randomizes map iteration order per run. A loop body that only
// performs commutative work — deleting keys, writing other maps,
// bumping counters, folding with += over floats is NOT commutative but
// is out of structural reach — is harmless. A body that appends to a
// slice, writes a hash/stream, emits an audit record, or posts a
// scheduler event bakes the random order into observable state: the
// exact bug class the PR 2 golden corpus caught in detect.finalize
// (evidence sort tie-ordered by map iteration) after it shipped.
//
// The check is structural, not a dataflow analysis:
//
//   - append targets are accepted when a recognized sort call
//     (sort.*/slices.Sort*, or a Sort method on the value) mentioning
//     the same variable appears later in the enclosing function — the
//     sorted-after-range idiom;
//   - hash/stream writes, audit-log emission and scheduler posts are
//     flagged unconditionally: no later sort can reorder a chained
//     hash, a sealed log or an event sequence draw.
//
// False positives (an order-insensitive append the analyzer cannot
// prove) take an explicit `//reprolint:ignore detmapiter <reason>`.
package detmapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// Analyzer is the detmapiter check.
var Analyzer = &analysis.Analyzer{
	Name: "detmapiter",
	Doc: "flag map iteration with order-dependent effects (slice append " +
		"without a later sort, hash/stream writes, audit-log emission, " +
		"scheduler posts) in deterministic packages",
	Run: run,
}

// streamWriteMethods are method names whose call inside a map range
// writes an order-sensitive stream (hash.Hash, strings.Builder,
// bytes.Buffer, io.Writer — all share these names).
var streamWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Sum":         false, // reading a digest is fine
}

// emitMethods are method names that append to an ordered event or
// record stream that cannot be sorted afterwards: the audit log
// (Node.log, Buffer.Append/Record) and anything named like an emitter.
var emitMethods = map[string]bool{
	"log":    true,
	"Log":    true,
	"Append": true,
	"Record": true,
	"Emit":   true,
	"Post":   true,
}

// schedulerMethods post events: each call draws a sequence number, so
// call order IS event order.
var schedulerMethods = map[string]bool{
	"At":         true,
	"After":      true,
	"AfterBurst": true,
	"Every":      true,
}

// fmtStreamFuncs write a formatted stream in call order.
var fmtStreamFuncs = map[string]bool{
	"Fprintf":  true,
	"Fprint":   true,
	"Fprintln": true,
}

func run(pass *analysis.Pass) error {
	if !lint.Deterministic(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		// Track the innermost enclosing function body for each range
		// statement, so the sorted-after-range search knows its scope.
		var encl []ast.Node // stack of *ast.FuncDecl / *ast.FuncLit
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				encl = append(encl, n)
				ast.Inspect(childrenOf(v), walk)
				encl = encl[:len(encl)-1]
				return false
			case *ast.RangeStmt:
				if analysis.IsMap(pass.TypesInfo.TypeOf(v.X)) && len(encl) > 0 {
					checkMapRange(pass, v, encl[len(encl)-1])
				}
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// childrenOf returns the body node of a function, or the node itself.
func childrenOf(n ast.Node) ast.Node {
	switch v := n.(type) {
	case *ast.FuncDecl:
		if v.Body != nil {
			return v.Body
		}
	case *ast.FuncLit:
		return v.Body
	}
	return n
}

// checkMapRange inspects one map-range statement inside encl.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, encl ast.Node) {
	info := pass.TypesInfo
	// appendTargets collects `x = append(...)`-style ordered
	// accumulations keyed by the root object of the target.
	type target struct {
		obj types.Object
		pos token.Pos
	}
	var appends []target

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isString(info.TypeOf(v.Lhs[0])) {
				pass.Reportf(v.Pos(), "string built across map iteration in %s: "+
					"iteration order is random per run; collect and sort first", pass.Path)
				return true
			}
			for i, rhs := range v.Rhs {
				if i >= len(v.Lhs) {
					break
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
					if id := analysis.RootIdent(v.Lhs[i]); id != nil {
						if obj := analysis.ObjectOf(info, id); obj != nil {
							appends = append(appends, target{obj: obj, pos: v.Pos()})
						}
					}
				}
				if bin, ok := rhs.(*ast.BinaryExpr); ok && bin.Op == token.ADD && isString(info.TypeOf(bin)) {
					pass.Reportf(v.Pos(), "string built across map iteration in %s: "+
						"iteration order is random per run; collect and sort first", pass.Path)
				}
			}
		case *ast.CallExpr:
			checkOrderedCall(pass, v)
		}
		return true
	})

	for _, t := range appends {
		if declaredOutside(t.obj, encl) {
			pass.Reportf(t.pos, "append to %s (declared outside this function) during map "+
				"iteration in %s: the retained order is random per run", t.obj.Name(), pass.Path)
			continue
		}
		if !sortedAfter(pass, encl, rs.End(), t.obj) {
			pass.Reportf(t.pos, "slice %s is appended during map iteration in %s and never "+
				"sorted before use: iteration order is random per run (the detect.finalize "+
				"bug class); sort after the loop or iterate a sorted key slice", t.obj.Name(), pass.Path)
		}
	}
}

// checkOrderedCall flags call forms whose order cannot be repaired by a
// later sort.
func checkOrderedCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if pkgPath, isPkg := analysis.PkgNameOf(pass.TypesInfo, sel.X); isPkg {
		if pkgPath == "fmt" && fmtStreamFuncs[name] {
			pass.Reportf(call.Pos(), "fmt.%s during map iteration in %s writes the stream "+
				"in random per-run order", name, pass.Path)
		}
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	rpkg, rname := analysis.NamedPath(recv)
	switch {
	case schedulerMethods[name] && strings.HasSuffix(rpkg, "internal/sim") && rname == "Scheduler":
		pass.Reportf(call.Pos(), "scheduler event posted during map iteration in %s: "+
			"each post draws a sequence number, so the event order is random per run", pass.Path)
	case streamWriteMethods[name]:
		pass.Reportf(call.Pos(), "%s.%s during map iteration in %s writes an order-"+
			"sensitive stream in random per-run order", rname, name, pass.Path)
	case emitMethods[name]:
		pass.Reportf(call.Pos(), "%s during map iteration in %s emits ordered records "+
			"in random per-run order; iterate a sorted key slice instead", name, pass.Path)
	}
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := analysis.ObjectOf(info, id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// declaredOutside reports whether obj's declaration lies outside the
// enclosing function's extent (a field, package variable, or a capture
// from an outer function).
func declaredOutside(obj types.Object, encl ast.Node) bool {
	return obj.Pos() < encl.Pos() || obj.Pos() > encl.End()
}

// sortFuncs are sort/slices package functions that establish a
// deterministic order over their (first) argument.
var sortFuncs = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, // slices
	"Slice": true, "SliceStable": true, "Stable": true, // sort
	"Strings": true, "Ints": true, "Float64s": true,
}

// sortMethods are methods whose call sorts the receiver or argument.
var sortMethods = map[string]bool{
	"Sort": true,
}

// sortedAfter reports whether the enclosing function, at any position
// after `after`, applies a recognized sort to obj.
func sortedAfter(pass *analysis.Pass, encl ast.Node, after token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(childrenOf(encl), func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if pkgPath, isPkg := analysis.PkgNameOf(pass.TypesInfo, sel.X); isPkg {
			if (pkgPath == "sort" || pkgPath == "slices") && sortFuncs[name] {
				for _, arg := range call.Args {
					if analysis.Mentions(pass.TypesInfo, arg, obj) {
						found = true
						break
					}
				}
			}
			return true
		}
		if sortMethods[name] && analysis.Mentions(pass.TypesInfo, sel.X, obj) {
			found = true
		}
		return true
	})
	return found
}
