package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter flags `for … range` over map-typed expressions in sim-path
// packages. Go randomizes map iteration order per run, so any observable
// effect of the loop's order — kill order, dispatch order, even the order
// of recorded violations — breaks replayability.
//
// Two loop shapes are recognized as safe and not flagged:
//
//   - order-insensitive bodies: pure commutative accumulation (x += v,
//     counters, delete from the ranged map, writes keyed by the loop key),
//     optionally wrapped in if/continue;
//   - collect-and-sort: the body only appends the keys (or values) to a
//     slice and a later statement in the same block sorts that slice
//     before it is consumed.
//
// Anything else — appends consumed unsorted, calls with side effects,
// early returns that pick an arbitrary element — is flagged.
var MapIter = &Rule{
	Name: "mapiter",
	Doc: "flag range over maps in sim-path packages unless the body is " +
		"order-insensitive or the keys are collected and sorted first",
	AppliesTo: SimPath,
	Run:       runMapIter,
}

func runMapIter(pass *Pass) {
	for _, file := range pass.Files() {
		for _, s := range mapRanges(pass.Mod.Info, file) {
			pass.Reportf(s.pos,
				"range over map %s has nondeterministic iteration order; collect and sort the keys, "+
					"use an insertion-ordered structure, or make the body order-insensitive",
				s.expr)
		}
	}
}

// mapRanges is the one map-iteration detector: every range over a
// map-typed operand under n whose body is not order-insensitive and whose
// keys are not collected and sorted. It walks statement lists rather than
// bare nodes because the collect-then-sort idiom needs the statements that
// follow the loop.
func mapRanges(info *types.Info, n ast.Node) []site {
	var out []site
	check := func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			rs, ok := unlabel(stmt).(*ast.RangeStmt)
			if !ok {
				continue
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				continue
			}
			if orderInsensitive(rs.Body.List, rs) || collectedAndSorted(rs, stmts[i+1:]) {
				continue
			}
			out = append(out, site{rs.Pos(), exprString(rs.X)})
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			check(s.List)
		case *ast.CaseClause:
			check(s.Body)
		case *ast.CommClause:
			check(s.Body)
		}
		return true
	})
	return out
}

func unlabel(stmt ast.Stmt) ast.Stmt {
	for {
		ls, ok := stmt.(*ast.LabeledStmt)
		if !ok {
			return stmt
		}
		stmt = ls.Stmt
	}
}

// orderInsensitive reports whether every statement's effect is independent
// of iteration order.
func orderInsensitive(stmts []ast.Stmt, rs *ast.RangeStmt) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// counters: x++ / x--
		case *ast.AssignStmt:
			if !commutativeAssign(s, rs) {
				return false
			}
		case *ast.ExprStmt:
			// delete from the ranged map keeps the loop a pure purge.
			if !isDeleteFromRanged(s.X, rs) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil && !commutativeAssignStmt(s.Init, rs) {
				return false
			}
			if !orderInsensitive(s.Body.List, rs) {
				return false
			}
			if s.Else != nil {
				if eb, ok := s.Else.(*ast.BlockStmt); !ok || !orderInsensitive(eb.List, rs) {
					return false
				}
			}
		case *ast.BlockStmt:
			if !orderInsensitive(s.List, rs) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func commutativeAssignStmt(stmt ast.Stmt, rs *ast.RangeStmt) bool {
	as, ok := stmt.(*ast.AssignStmt)
	return ok && commutativeAssign(as, rs)
}

// commutativeAssign accepts accumulator updates whose final value does not
// depend on visit order: compound += / -= / |= / &= / ^= on a scalar
// target, and plain writes indexed by the loop key (each iteration touches
// a distinct slot).
func commutativeAssign(s *ast.AssignStmt, rs *ast.RangeStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) != 1 {
			return false
		}
		ix, ok := s.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		key, ok := rs.Key.(*ast.Ident)
		return ok && exprString(ix.Index) == key.Name
	}
	return false
}

func isDeleteFromRanged(e ast.Expr, rs *ast.RangeStmt) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	return exprString(call.Args[0]) == exprString(rs.X)
}

// collectedAndSorted recognizes the collect-then-sort idiom: the body is a
// single `s = append(s, key)` (or value), and some later statement in the
// enclosing block passes s to a sorting call (sort.Slice, sort.Strings,
// a local sortFoo helper, …) before anything else consumes it.
func collectedAndSorted(rs *ast.RangeStmt, following []ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	target, ok := as.Lhs[0].(*ast.Ident)
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
	if len(call.Args) < 1 || exprString(call.Args[0]) != target.Name {
		return false
	}
	for _, stmt := range following {
		if stmtSorts(stmt, target.Name) {
			return true
		}
	}
	return false
}

// stmtSorts reports whether stmt is a call that sorts the named slice.
func stmtSorts(stmt ast.Stmt, slice string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	var fname string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fname = fun.Name
	case *ast.SelectorExpr:
		fname = exprString(fun)
	default:
		return false
	}
	if !strings.Contains(strings.ToLower(fname), "sort") {
		return false
	}
	for _, arg := range call.Args {
		if exprString(arg) == slice {
			return true
		}
	}
	return false
}

// exprString renders simple expressions (identifiers, selector chains,
// index expressions) for comparison and messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "(…)"
	case *ast.BinaryExpr:
		return exprString(v.X) + " " + v.Op.String() + " " + exprString(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.BasicLit:
		return v.Value
	}
	return "…"
}
