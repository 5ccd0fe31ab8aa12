// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that the reprolint suite
// needs: an Analyzer is a named check, a Pass hands it one type-checked
// package, and diagnostics are collected positionally.
//
// The container this repository builds in has no module proxy access,
// so the real x/tools framework cannot land as a dependency yet. The
// types here keep the same field names and call shapes (Analyzer.Run,
// Pass.Reportf) so that migrating the four analyzers onto the real
// framework is a mechanical import swap, not a rewrite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's identifier: it appears in grouped output
	// and is the key //reprolint:ignore suppressions name.
	Name string
	// Doc is the one-paragraph description printed by reprolint -help.
	Doc string
	// Run executes the check against one package.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass hands an analyzer everything it may inspect about one package.
// All fields are read-only for the analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path. Analyzers use it to decide
	// whether the deterministic-package rules apply (lint.Deterministic).
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// PkgNameOf resolves expr to the import path of the package it names,
// e.g. the "time" in time.Now. The second result is false when expr is
// not a package qualifier.
func PkgNameOf(info *types.Info, expr ast.Expr) (string, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// IsMap reports whether t's underlying type is a map, named map types
// included.
func IsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// NamedPath returns the defining package path and type name behind t,
// unwrapping one level of pointer, or ("", "") when t is not a named
// type.
func NamedPath(t types.Type) (pkg, name string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// RootIdent peels index and selector wrappers off an assignable
// expression and returns the leftmost identifier: x, x[i], x.f[j].g all
// root at x. Nil when the expression roots elsewhere (calls, literals).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// ObjectOf resolves id to its types.Object through either Uses or Defs.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// Mentions reports whether any identifier inside e resolves to obj.
func Mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && ObjectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
