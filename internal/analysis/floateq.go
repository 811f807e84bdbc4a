package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point expressions in the value
// and packing packages (scheduler, knapsack, core, estimator).
//
// The knapsack's Eq. 1 job values are integer-scaled precisely so that
// the DP never compares floats; a float equality sneaking back into a
// value comparison makes "equal value" depend on rounding of the
// expression tree — two mathematically equal scores can differ in the
// last ulp depending on evaluation order, flipping tie adjudication and
// with it the packing. Compare integer-scaled values, or use an explicit
// epsilon when a float comparison is genuinely intended.
var FloatEq = &Rule{
	Name: "floateq",
	Doc: "flag ==/!= between floating-point expressions in value/packing " +
		"packages; use integer-scaled values or an explicit epsilon",
	AppliesTo: func(rel string) bool {
		switch rel {
		case "internal/scheduler", "internal/knapsack", "internal/core", "internal/estimator":
			return true
		}
		return false
	},
	Run: runFloatEq,
}

func runFloatEq(pass *Pass) {
	info := pass.Mod.Info
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloat(info.TypeOf(be.X)) || isFloat(info.TypeOf(be.Y)) {
				pass.Reportf(be.OpPos,
					"floating-point %s comparison (%s %s %s); compare integer-scaled values or use an epsilon",
					be.Op, exprString(be.X), be.Op, exprString(be.Y))
			}
			return true
		})
	}
}

// isFloat reports whether t is a (named or untyped) floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
