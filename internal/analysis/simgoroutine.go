package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimGoroutine forbids host concurrency in sim-path packages: goroutines,
// channel operations and types, select statements, and the sync/sync⁄atomic
// primitives. Determinism rests on one thing: every state change happens
// inside an engine callback, in (time, seq) order, on one goroutine. A
// component that wants "these things happen independently" schedules
// events on the engine. A goroutine or a channel rendezvous hands ordering
// to the host scheduler, which differs from run to run, and a mutex or an
// atomic guards against concurrency that would already have broken
// reproducibility.
//
// The rule covers every sim-path package, the engine included: the engine
// is serial and has no goroutines of its own. A genuinely host-side site
// carries a per-line //philint:ignore simgoroutine <reason> directive so
// each use is individually reviewed.
var SimGoroutine = &Rule{
	Name: "simgoroutine",
	Doc: "forbid goroutines, channels, select, and sync primitives in sim-path " +
		"packages; simulated concurrency is scheduled events on the serial engine",
	AppliesTo: SimPath,
	Run:       runSimGoroutine,
}

func runSimGoroutine(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(v.Pos(),
					"go statement spawns a host goroutine; schedule an event on the engine instead")
			case *ast.SendStmt:
				pass.Reportf(v.Pos(),
					"channel send synchronizes through the host scheduler; pass results via scheduled callbacks")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					pass.Reportf(v.Pos(),
						"channel receive blocks on the host scheduler; pass results via scheduled callbacks")
				}
			case *ast.SelectStmt:
				pass.Reportf(v.Pos(),
					"select races host goroutines; event ordering must come from the engine's (time, seq) queue")
			case *ast.ChanType:
				pass.Reportf(v.Pos(),
					"channel type in a sim-path component; simulated hand-offs are scheduled events, not channels")
			case *ast.SelectorExpr:
				// Package-qualified names only (sync.Mutex,
				// atomic.AddInt64): the type or call that introduces the
				// primitive is the finding, not each method on it.
				if id, ok := v.X.(*ast.Ident); ok {
					if pn, ok := pass.Mod.Info.Uses[id].(*types.PkgName); ok {
						if path := pn.Imported().Path(); path == "sync" || path == "sync/atomic" {
							pass.Reportf(v.Pos(),
								"%s.%s guards against host concurrency; sim-path state is only touched from engine callbacks, on one goroutine",
								pn.Imported().Name(), v.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}
}
