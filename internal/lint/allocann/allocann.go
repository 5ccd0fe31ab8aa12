// Package allocann checks functions annotated `//repro:allocfree` for
// syntactically-visible allocations.
//
// The PR 6 allocation tier pins the zero-ceiling hot paths
// (trust.Store.Get/Update/NodesInto, reputation.AppendVector/
// Ingest, wire.Packet.AppendTo, audit-log sealing) at runtime via
// testing.AllocsPerRun — but only when the alloc tests run. This
// analyzer turns the budget into an at-desk, per-diff check: the
// annotation marks the contract in the source, and the analyzer flags
// the allocation idioms that most often erode it:
//
//   - fmt string building (Sprintf/Sprint/Sprintln/Errorf)
//   - string concatenation and string(...) conversions inside loops
//   - append inside a loop onto a fresh, un-presized local slice
//     (appends onto retained fields, parameters or presized locals are
//     amortized and pass)
//   - map/chan construction (literals or make)
//
// The check is syntactic: escape-analysis wins (an interface conversion
// the compiler stack-allocates) and callee allocations are out of
// reach — the runtime tier remains the ground truth. A deliberate
// cold-path allocation inside an annotated function takes an explicit
// `//reprolint:ignore allocann <reason>`.
package allocann

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Annotation marks a function whose body must stay allocation-free on
// the steady path.
const Annotation = "//repro:allocfree"

// Analyzer is the allocann check.
var Analyzer = &analysis.Analyzer{
	Name: "allocann",
	Doc: "check //repro:allocfree-annotated functions for syntactically " +
		"visible allocations (fmt string building, string concat/conversion " +
		"in loops, un-presized append on fresh slices, map literals)",
	Run: run,
}

// fmtStringFuncs allocate their result string.
var fmtStringFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !annotated(fn.Doc) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// annotated reports whether the doc comment carries the marker line.
func annotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == Annotation {
			return true
		}
	}
	return false
}

// checkFunc scans one annotated function body.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fn.Name.Name

	// Pass 1: find fresh, un-presized local slices — `var s []T`,
	// `s := []T{}` (empty literal), `s := make([]T, 0)` (no capacity).
	fresh := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					if obj := info.Defs[id]; obj != nil && isSlice(obj.Type()) {
						fresh[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE {
				return true
			}
			for i, rhs := range v.Rhs {
				if i >= len(v.Lhs) {
					break
				}
				id, ok := v.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				if isEmptySliceLit(rhs) || isUnpresizedMake(info, rhs) {
					fresh[obj] = true
				}
			}
		}
		return true
	})

	// Pass 2: walk the body flagging allocation idioms; loop depth
	// scopes the in-loop-only rules.
	var depth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
			for _, c := range childNodes(v) {
				ast.Inspect(c, walk)
			}
			depth--
			return false
		case *ast.CompositeLit:
			if isMapType(info.TypeOf(v)) {
				pass.Reportf(v.Pos(), "map literal in //repro:allocfree %s allocates; "+
					"hoist it to a retained field or presized scratch", name)
			}
		case *ast.CallExpr:
			checkCall(pass, v, name, depth, fresh, info)
		case *ast.BinaryExpr:
			if depth > 0 && v.Op == token.ADD && isString(info.TypeOf(v)) {
				pass.Reportf(v.Pos(), "string concatenation in a loop in //repro:allocfree %s "+
					"allocates per iteration; append into a retained []byte instead", name)
			}
		case *ast.AssignStmt:
			if depth > 0 && v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isString(info.TypeOf(v.Lhs[0])) {
				pass.Reportf(v.Pos(), "string += in a loop in //repro:allocfree %s "+
					"allocates per iteration; append into a retained []byte instead", name)
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkCall flags allocating call forms inside an annotated function.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, name string, depth int, fresh map[types.Object]bool, info *types.Info) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if pkgPath, isPkg := analysis.PkgNameOf(info, fun.X); isPkg {
			if pkgPath == "fmt" && fmtStringFuncs[fun.Sel.Name] {
				pass.Reportf(call.Pos(), "fmt.%s in //repro:allocfree %s allocates its "+
					"result; render with strconv.Append*/copy into retained scratch",
					fun.Sel.Name, name)
			}
		}
	case *ast.Ident:
		if b, ok := analysis.ObjectOf(info, fun).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if len(call.Args) > 0 {
					t := info.TypeOf(call.Args[0])
					if isMapType(t) || isChan(t) {
						pass.Reportf(call.Pos(), "make(%s) in //repro:allocfree %s allocates; "+
							"hoist it to a retained field", types.TypeString(t, nil), name)
					}
				}
			case "append":
				if depth > 0 && len(call.Args) > 0 {
					if id := analysis.RootIdent(call.Args[0]); id != nil {
						if obj := analysis.ObjectOf(info, id); obj != nil && fresh[obj] {
							pass.Reportf(call.Pos(), "append onto fresh un-presized slice %q in "+
								"a loop in //repro:allocfree %s reallocates as it grows; presize "+
								"with make(cap) or reuse retained scratch", id.Name, name)
						}
					}
				}
			}
			return
		}
		// A call whose Fun is a type expression is a conversion:
		// string([]byte) / string([]rune) in a loop allocates.
		if depth > 0 {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && isString(tv.Type) {
				if len(call.Args) == 1 && !isString(info.TypeOf(call.Args[0])) {
					pass.Reportf(call.Pos(), "string(...) conversion in a loop in "+
						"//repro:allocfree %s allocates per iteration", name)
				}
			}
		}
	}
}

// childNodes returns the sub-nodes of a loop statement to continue the
// walk through (header expressions and body).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch v := n.(type) {
	case *ast.ForStmt:
		if v.Init != nil {
			out = append(out, v.Init)
		}
		if v.Cond != nil {
			out = append(out, v.Cond)
		}
		if v.Post != nil {
			out = append(out, v.Post)
		}
		out = append(out, v.Body)
	case *ast.RangeStmt:
		if v.X != nil {
			out = append(out, v.X)
		}
		out = append(out, v.Body)
	}
	return out
}

func isSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isMapType(t types.Type) bool { return analysis.IsMap(t) }

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// isEmptySliceLit reports whether e is `[]T{}` with no elements.
func isEmptySliceLit(e ast.Expr) bool {
	cl, ok := e.(*ast.CompositeLit)
	return ok && len(cl.Elts) == 0 && cl.Type != nil
}

// isUnpresizedMake reports whether e is make([]T, 0) — zero length, no
// capacity argument.
func isUnpresizedMake(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := analysis.ObjectOf(info, id).(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if !isSlice(info.TypeOf(call.Args[0])) {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}
