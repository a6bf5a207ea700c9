// Package analysis is a small, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass,
// Diagnostic — sized for hydralint, Hydra's in-tree static-analysis
// suite. The shipped library stays stdlib-only (that is itself one of
// the invariants hydralint protects), so rather than vendoring x/tools
// the repo carries this minimal framework: an analyzer is a named Run
// function over one type-checked package, and the one driver,
// unitchecker (`go vet -vettool=hydralint`), feeds it packages that
// ParseFiles and TypeCheck load; analysistest loads its corpora with
// the same two.
//
// The API deliberately mirrors x/tools so the analyzers would port to
// the real framework by changing one import path.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer describes one static check: a name, documentation, optional
// flags, and the Run function applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// (-name.flag). It must be a valid identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary,
	// optionally followed by a blank line and details.
	Doc string

	// Flags holds analyzer-specific flags, registered by the driver
	// under the -name.flag namespace.
	Flags flag.FlagSet

	// Run applies the check to one package and reports diagnostics via
	// pass.Report/Reportf. The result value is ignored by Hydra's
	// drivers (kept for x/tools API shape).
	Run func(pass *Pass) (any, error)
}

// Pass is one (analyzer, package) unit of work: the syntax trees,
// type information, and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers
// whose invariants only bind production code filter with this, since
// `go vet` type-checks each package's test variants too.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// Directive reports whether the function declaration carries the
// `//hydra:<name>` annotation in its doc comment (directive comments
// attach to the doc group when adjacent to the declaration). The
// directive may carry a justification after a space:
//
//	//hydra:nondeterministic map-range feeds a commutative fold
//	func merge(...)
func Directive(fd *ast.FuncDecl, name string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	want := "//hydra:" + name
	for _, c := range fd.Doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// CalleeObject resolves the called function or method of a call
// expression to its types.Object, looking through parentheses. It
// returns nil for calls through function values, built-ins, and type
// conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method or field call
		}
		// Qualified identifier: pkg.Func.
		if o, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}

// PkgPathOf returns the import path of the package an object belongs
// to, or "" for builtins and universe-scope objects.
func PkgPathOf(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}

// IsPkgFunc reports whether call invokes the package-level function
// (or method named name on any receiver) belonging to a package whose
// import path is path or ends in "/"+path.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	o := CalleeObject(info, call)
	if o == nil || o.Name() != name {
		return false
	}
	p := PkgPathOf(o)
	return p == path || strings.HasSuffix(p, "/"+path)
}

// ParseFiles parses the named files (relative names resolved against
// dir) with comments, as the analyzers need directive comments.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	fs := make([]*ast.File, 0, len(names))
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// TypeCheck type-checks one package's files with the given importer,
// returning the package and full type info.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
