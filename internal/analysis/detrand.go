package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetRand forbids math/rand outside internal/rng, the sanctioned wrapper.
//
// Every random draw in the simulation must flow through an rng.Source
// seeded from the experiment configuration: that is what makes a
// (seed, profile, policy) triple replayable and every table in the paper
// reproducible. A bare rand.Intn — or worse, an unseeded global source —
// injects process-lifetime state into the run and silently breaks
// bit-identical replay.
var DetRand = &Rule{
	Name: "detrand",
	Doc: "forbid math/rand (and math/rand/v2) outside internal/rng; " +
		"all randomness must flow through a seeded rng.Source",
	AppliesTo: func(rel string) bool { return rel != randHome },
	Run:       runDetRand,
}

// randHome is the one package allowed to use math/rand.
const randHome = "internal/rng"

func runDetRand(pass *Pass) {
	for _, file := range pass.Files() {
		for _, s := range randUses(pass.Mod.Info, file) {
			pass.Reportf(s.pos,
				"%s uses math/rand directly; draw from an internal/rng.Source seeded by the experiment config",
				s.expr)
		}
		// A blank import has no use to report (only init-time side
		// effects); the import line itself is the finding. Names a dot
		// import merges into the file scope resolve like any other use.
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if isRandPath(path) && imp.Name != nil && imp.Name.Name == "_" {
				pass.Reportf(imp.Pos(),
					"_ import of %s outside internal/rng; use a seeded rng.Source", path)
			}
		}
	}
}

// A site is one banned nondeterminism source a detector found: where it
// is, and the expression as written ("rand.Intn", "time.Now", "s.waiting").
type site struct {
	pos  token.Pos
	expr string
}

// randUses is the one math/rand detector: every reference under n to an
// object math/rand or math/rand/v2 declares — package functions, types,
// and methods on their values alike.
func randUses(info *types.Info, n ast.Node) []site {
	var out []site
	refs(info, n, func(ref ast.Expr, obj types.Object) {
		if obj.Pkg() != nil && isRandPath(obj.Pkg().Path()) {
			out = append(out, site{ref.Pos(), exprString(ref)})
		}
	})
	return out
}

// refs calls fn for every identifier under n that uses (rather than
// declares) an object. A selected name (rand.Intn, r.Intn) is passed as
// the whole selector, so positions and text match the source as written.
func refs(info *types.Info, n ast.Node, fn func(ref ast.Expr, obj types.Object)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			if obj := info.Uses[v.Sel]; obj != nil {
				fn(v, obj)
			}
			refs(info, v.X, fn)
			return false
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				fn(v, obj)
			}
		}
		return true
	})
}

func isRandPath(path string) bool {
	return path == "math/rand" || strings.HasPrefix(path, "math/rand/")
}
