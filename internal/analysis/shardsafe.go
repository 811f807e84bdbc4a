package analysis

// ShardSafe is the whole-program lane-ownership rule. The parallel engine
// runs lane-affine callbacks (sim.Lane.At / After / AtTimer / AfterTimer)
// concurrently, one node lane per worker, between event barriers. Lane
// callbacks own their node's state by construction (the lane partition),
// so the contract is narrow: a lane callback must not write package-level
// state or perform I/O, directly or through any module call it reaches.
// Effects originating inside internal/obs or internal/sim are exempt: their
// cross-lane buffers are the flush-ordered observability boundary, and the
// engine's own machinery is the sanctioned primitive.
//
// Findings are attributed to the offending site (primary position) and the
// lane call site (entry position); an ignore directive at either
// suppresses.

import (
	"go/ast"
	"go/token"
)

// ShardSafe is the whole-program lane ownership rule.
var ShardSafe = &WholeAnalyzer{
	Name: "shardsafe",
	Doc: "lane callbacks may not touch package-level state or perform I/O, " +
		"transitively through every call",
	Run: runShardSafe,
}

// laneSchedFullNames are the Lane scheduling methods whose callbacks run on
// lane workers.
var laneSchedFullNames = map[string]bool{
	"(*" + ModulePath + "/internal/sim.Lane).At":         true,
	"(*" + ModulePath + "/internal/sim.Lane).After":      true,
	"(*" + ModulePath + "/internal/sim.Lane).AtTimer":    true,
	"(*" + ModulePath + "/internal/sim.Lane).AfterTimer": true,
}

func runShardSafe(p *ModulePass) {
	sc := &shardChecker{
		p:        p,
		ef:       newEffects(p.Mod, p.Graph),
		reported: map[shardReportKey]bool{},
	}
	for _, fi := range p.Mod.Funcs {
		if fi.Pkg.Rel == "internal/sim" {
			continue // the engine schedules on itself freely
		}
		seenPos := map[token.Pos]bool{}
		for _, edge := range p.Graph.Edges[fi] {
			if seenPos[edge.Pos] || !laneSchedFullNames[edge.To.Fn.FullName()] {
				continue
			}
			seenPos[edge.Pos] = true
			sc.checkLaneSite(fi, edge.Pos)
		}
	}
}

type shardReportKey struct {
	pos   token.Pos
	entry token.Pos
}

type shardChecker struct {
	p        *ModulePass
	ef       *effects
	reported map[shardReportKey]bool
}

func (sc *shardChecker) report(pos, entry token.Pos, msg string) {
	key := shardReportKey{pos: pos, entry: entry}
	if sc.reported[key] {
		return
	}
	sc.reported[key] = true
	sc.p.Report(Finding{
		Pos:     sc.p.Position(pos),
		Rule:    "shardsafe",
		Message: msg,
		Entry:   sc.p.Position(entry),
	})
}

// checkLaneSite verifies a lane callback: no package-level writes, no I/O,
// directly or transitively (effects originating in internal/obs and
// internal/sim are the sanctioned observability/engine boundary).
func (sc *shardChecker) checkLaneSite(fi *FuncInfo, pos token.Pos) {
	call := sc.ef.callSites(fi)[pos]
	if call == nil || len(call.Args) < 2 {
		return
	}
	entry := call.Lparen
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		return // named callbacks are covered when their package is analyzed
	}
	env := buildProvEnv(sc.p.Mod, fi)
	for _, w := range writesIn(lit.Body) {
		if env.writeProv(w).kind == pGlobal {
			sc.report(w.pos, entry,
				"lane callback writes package-level "+exprString(w.target)+
					": lanes run concurrently, only lane-owned (node) state is safe")
		}
	}
	exts := map[token.Pos][]ExtCall{}
	for _, e := range sc.p.Graph.External[fi] {
		exts[e.Pos] = append(exts[e.Pos], e)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, ext := range exts[call.Lparen] {
			if isIOFunc(ext.Fn) {
				sc.report(call.Lparen, entry, "lane callback calls "+extDisplayName(ext.Fn)+" (I/O is not lane-safe)")
			}
		}
		return true
	})
	for _, edge := range sc.p.Graph.Edges[fi] {
		if edge.Pos < lit.Body.Pos() || edge.Pos >= lit.Body.End() || edge.To.Pkg.Rel == "internal/sim" {
			continue
		}
		for _, e := range sc.ef.of(edge.To) {
			if e.originRel == "internal/obs" || e.originRel == "internal/sim" {
				continue
			}
			switch {
			case e.kind == effIO:
				sc.report(e.pos, entry, "lane callback transitively performs I/O: "+e.desc)
			case e.kind == effWriteShared && e.via.kind == pGlobal:
				sc.report(e.pos, entry, "lane callback transitively "+e.desc+": lanes run concurrently")
			}
		}
	}
}
