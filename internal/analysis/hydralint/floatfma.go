package hydralint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/dsl-repro/hydra/internal/analysis"
)

// FloatFMA flags floating-point products that Go may fuse into the add
// or subtract around them: `a*b + c`, `c - a*b`, `x += a*b`, `x -= a*b`.
// The Go spec lets a compiler compute such an expression with a single
// rounding (one FMA instruction; arm64, ppc64le, s390x and riscv64 do),
// unless an explicit conversion rounds the product first:
// `c - float64(a*b)`. In the float simplex a fused update can change
// which pivot a tie on fEps picks, so the same LP reaches another vertex,
// and with it another summary digest, on another machine.
//
// The check is syntactic, within one expression. The spec also allows
// fusion across statements (`p := a*b; x += p`), which no single
// expression shows; the CI step that compiles internal/lp for arm64 and
// rejects any FMADDD/FMSUBD in the listing stays the backstop for it.
var FloatFMA = &analysis.Analyzer{
	Name: "floatfma",
	Doc:  "flag float products added or subtracted without a float64(…) that rounds them (fusable into an FMA)",
	Run:  runFloatFMA,
}

var floatFMAPkgs = "internal/lp"

func init() {
	FloatFMA.Flags.StringVar(&floatFMAPkgs, "pkgs", floatFMAPkgs,
		"comma-separated import-path suffixes of packages whose float arithmetic must round like amd64's")
}

func runFloatFMA(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), floatFMAPkgs) {
		return nil, nil
	}
	// Test files are checked too: a reference computation in a test must
	// round the way the code it checks does.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					reportFusable(pass, n.X, n.Op)
					reportFusable(pass, n.Y, n.Op)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 {
					op := token.ADD
					if n.Tok == token.SUB_ASSIGN {
						op = token.SUB
					}
					reportFusable(pass, n.Rhs[0], op)
				}
			}
			return true
		})
	}
	return nil, nil
}

// reportFusable reports operand e of an op (+ or -) when it is an
// unrounded, non-constant floating-point product.
func reportFusable(pass *analysis.Pass, e ast.Expr, op token.Token) {
	mul, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	tv, ok := pass.TypesInfo.Types[mul]
	if !ok || tv.Value != nil || !isFloat(tv.Type) {
		return
	}
	pass.Reportf(mul.Pos(), "float product %s may fuse with the %s around it into one FMA on some architectures; round it first with %s(…)",
		types.ExprString(mul), op, types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
