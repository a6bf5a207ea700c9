package hydralint

import (
	"go/ast"
	"go/types"

	"github.com/dsl-repro/hydra/internal/analysis"
)

// Determinism enforces the paper's core guarantee at the source level:
// regenerated data is a pure function of (summary digest, seed), and
// the summary a pure function of (schema, workload). In the packages
// that produce those bytes (tuplegen span arithmetic, pred canonical
// encoding, the matgen encoders) and in those that decide the summary
// (partition, the core LP formulation, the lp solver, summary
// construction) it forbids the three ways nondeterminism usually
// sneaks in:
//
//   - wall-clock reads (time.Now / time.Since / time.Until),
//   - math/rand (either version — all randomness on the generation
//     path must derive from the seeded, explicit generators),
//   - ranging over a map, whose iteration order is deliberately
//     randomized by the runtime.
//
// Map ranges with provably order-insensitive shapes are allowed
// without annotation: collecting keys/values into a slice that is
// sorted later in the same function, copying entries into another
// map, and pure existence scans (`if cond { return <const> }`).
// Anything else needs the function-level `//hydra:nondeterministic`
// opt-out with a justification — the annotation is the reviewable
// record that the nondeterminism never reaches the output bytes
// (timing for metrics, for example).
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, math/rand, and map-iteration ordering in the regeneration path",
	Run:  runDeterminism,
}

var determinismPkgs = "internal/tuplegen,internal/pred,internal/matgen,internal/core,internal/lp,internal/partition,internal/summary"

func init() {
	Determinism.Flags.StringVar(&determinismPkgs, "pkgs", determinismPkgs,
		"comma-separated import-path suffixes of determinism-critical packages")
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), determinismPkgs) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "math/rand in a determinism-critical package; derive randomness from the seeded generators")
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || analysis.Directive(fd, "nondeterministic") {
				continue
			}
			checkDeterminismFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkDeterminismFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures inherit the enclosing function's obligation;
			// keep walking.
		case *ast.CallExpr:
			for _, name := range [...]string{"Now", "Since", "Until"} {
				if analysis.IsPkgFunc(pass.TypesInfo, n, "time", name) {
					pass.Reportf(n.Pos(), "time.%s on the regeneration path; output must be a pure function of (summary, seed) — annotate //hydra:nondeterministic if this is timing-only", name)
				}
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if mapRangeOrderInsensitive(pass, fd, n) {
				return true
			}
			pass.Reportf(n.Pos(), "range over map has nondeterministic order on the regeneration path; sort the keys or annotate //hydra:nondeterministic with why order cannot reach the output")
		}
		return true
	})
}

// mapRangeOrderInsensitive recognizes the three loop shapes whose
// result cannot depend on iteration order.
func mapRangeOrderInsensitive(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	return isSortedCollect(pass, fd, rng) || isMapCopy(pass, rng) || isExistenceScan(pass, rng)
}

// isSortedCollect: every statement in the body is `s = append(s, ...)`
// and each such s is later passed to a sort call in the same function.
func isSortedCollect(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	var targets []types.Object
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return false
		}
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Defs[lhs]
		}
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(pass, fd, rng, obj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj appears as an argument to a sort.*
// or slices.Sort* call positioned after the range loop.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return true
		}
		callee := analysis.CalleeObject(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		switch analysis.PkgPathOf(callee) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isMapCopy: every statement writes into an index expression over a
// map (out[k] = v), so the result is a set union regardless of order.
func isMapCopy(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, lhs := range as.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				return false
			}
			tv, ok := pass.TypesInfo.Types[ix.X]
			if !ok {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return false
			}
		}
	}
	return true
}

// isExistenceScan: the body is a single if (no else) whose body only
// returns compile-time constants — an order-insensitive "does any
// entry satisfy P" probe.
func isExistenceScan(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	ifs, ok := rng.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Else != nil || ifs.Init != nil || len(ifs.Body.List) != 1 {
		return false
	}
	ret, ok := ifs.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, res := range ret.Results {
		tv, ok := pass.TypesInfo.Types[res]
		if !ok || tv.Value == nil && !tv.IsNil() {
			return false
		}
	}
	return true
}
