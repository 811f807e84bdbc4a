package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock forbids reading the host's clock. Simulated components must
// take time from the sim.Engine's virtual clock; a time.Now in a
// scheduling path makes outcomes depend on host speed and load, which is
// exactly the nondeterminism the replayable chaos triples and the
// bit-identical policy comparisons cannot tolerate.
//
// The rule is module-wide: sim-path packages must never need an
// exemption, while wall-clock-legitimate sites (the phibench timing
// harness reporting how long the *experiment driver* took) carry a
// per-line //philint:ignore wallclock annotation instead of a package
// exemption, so each use is individually reviewed.
var WallClock = &Rule{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now, time.Since, timers, sleeps); " +
		"simulation code takes time from the sim.Engine clock",
	AppliesTo: allPackages,
	Run:       runWallClock,
}

// wallClockFuncs are the time-package functions that observe or wait on
// the host clock. Pure-value identifiers (time.Duration, time.Millisecond)
// and methods on time values (t.After(u), d.Seconds()) stay legal: they
// denote or compare quantities, not clock reads.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runWallClock(pass *Pass) {
	for _, file := range pass.Files() {
		for _, s := range wallClockReads(pass.Mod.Info, file) {
			pass.Reportf(s.pos,
				"%s reads the wall clock; simulation state must advance on the sim.Engine clock", s.expr)
		}
	}
}

// wallClockReads is the one wall-clock detector: every reference under n
// to one of the time package's clock-reading functions, called or taken
// as a value.
func wallClockReads(info *types.Info, n ast.Node) []site {
	var out []site
	refs(info, n, func(ref ast.Expr, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
			fn.Type().(*types.Signature).Recv() == nil && wallClockFuncs[fn.Name()] {
			out = append(out, site{ref.Pos(), exprString(ref)})
		}
	})
	return out
}
