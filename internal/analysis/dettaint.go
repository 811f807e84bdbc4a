package analysis

// DetTaint is the whole-program determinism rule: banned nondeterminism
// sources — math/rand outside internal/rng, wall-clock reads, and
// order-sensitive map iteration — are flagged anywhere *reachable from a
// sim-path entry point*, through any call chain, across package
// boundaries. It closes the helper-function escape hatch the
// package-scoped rules have: detrand/wallclock/mapiter see only the
// packages they bind, so a banned construct tucked into a helper package
// that sim-path code calls into was structurally invisible to them.
//
// Each source has exactly one detector (randUses, wallClockReads,
// mapRanges), which its package-scoped rule and dettaint share. A site
// the package-scoped rule already reports is skipped here (one finding
// per construct). What dettaint adds:
//
//   - order-sensitive map ranges in packages OUTSIDE the mapiter scope
//     (classad, obs, knapsack, estimator, runner, …) that sim-path code
//     transitively calls — mapiter cannot see them, reachability can;
//   - rand/wall-clock sites whose package-scoped finding was suppressed
//     with a context justification ("harness timing, not sim state") but
//     that ARE reachable from a sim-path entry — the suppression's premise
//     is exactly what reachability disproves. A suppressed mapiter site is
//     NOT re-flagged: its review ("order-insensitive in fact") is about
//     the loop's content, which reachability does not undermine.
//
// Each finding is attributed to both the offending site (primary position)
// and the call site inside the sim-path entry that starts a shortest chain
// (entry position); an ignore directive at either location suppresses it.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DetTaint is the whole-program banned-nondeterminism-source rule. Its
// scope is the set of entry packages: every function declared in a
// sim-path package roots the reachability walk.
var DetTaint = &Rule{
	Name: "dettaint",
	Doc: "flag banned nondeterminism sources (math/rand, wall-clock reads, " +
		"order-sensitive map iteration) transitively reachable from sim-path " +
		"entry points, across function and package boundaries",
	AppliesTo: SimPath,
	Run:       runDetTaint,
}

// bannedSources are the hazard classes dettaint follows, each with its one
// detector and the package-scoped rule that owns it.
var bannedSources = []struct {
	rule   *Rule
	detect func(*types.Info, ast.Node) []site
	// desc formats a site's expression at the end of a call chain.
	desc string
	// reviewsContent: a suppression of the owning rule reviewed the
	// construct itself, so it holds on the sim path too.
	reviewsContent bool
}{
	{rule: DetRand, detect: randUses, desc: "%s (unseeded math/rand)"},
	{rule: WallClock, detect: wallClockReads, desc: "%s (wall clock)"},
	{rule: MapIter, detect: mapRanges, desc: "order-sensitive range over map %s", reviewsContent: true},
}

func runDetTaint(p *Pass) {
	var roots []*FuncInfo
	for _, fi := range p.Mod.Funcs {
		if p.Rule.AppliesTo(fi.Rel()) {
			roots = append(roots, fi)
		}
	}
	if len(roots) == 0 {
		return
	}
	reach := p.Graph().ReachableFrom(roots)

	for _, fi := range p.Mod.Funcs {
		if !reach.Reaches(fi) {
			continue
		}
		for _, src := range bannedSources {
			if src.rule == DetRand && fi.Rel() == randHome {
				continue // the sanctioned wrapper
			}
			covered := src.rule.AppliesTo(fi.Rel())
			for _, s := range src.detect(p.Mod.Info, fi.Decl.Body) {
				if covered && (!p.SuppressedAt(src.rule.Name, s.pos) || src.reviewsContent) {
					// Either the package-scoped rule reports this site
					// (one finding per construct), or its suppression
					// reviewed the loop's content, which reachability
					// does not invalidate.
					continue
				}
				chain := reach.Chain(fi)
				entryPos := s.pos
				if len(chain) > 1 && chain[0].Pos.IsValid() {
					entryPos = chain[0].Pos
				}
				suffix := ""
				if covered {
					suffix = " (site-local suppression reviewed it as outside the sim path; this chain is the sim path)"
				}
				p.Report(Finding{
					Pos:     p.Position(s.pos),
					Rule:    p.Rule.Name,
					Message: "banned nondeterminism source on the sim path: " + chainString(chain, fmt.Sprintf(src.desc, s.expr)) + suffix,
					Entry:   p.Position(entryPos),
				})
			}
		}
	}
}
