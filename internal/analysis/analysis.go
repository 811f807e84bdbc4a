// Package analysis implements philint, the project's determinism-and-
// simulation-hygiene analyzer suite.
//
// Every correctness claim this reproduction makes — bit-identical
// MC/MCC/MCCK outcomes across the optimized paths, outcome-neutral
// observability, replayable (seed, profile, policy) chaos triples — rests
// on the simulation being deterministic. philint turns that contract from
// a convention into a machine-checked CI gate: nine rules run over the
// module after the stdlib go/types checker has resolved it (go/parser,
// go/ast and go/types only, so go.mod stays dependency-free) and flag the
// source-level constructs that silently break replayability.
//
// Every rule reads the one type-checked Module. Most are scoped to a set
// of packages and look at their code alone; dettaint and pureselect
// follow the call graph across function and package boundaries. A
// construct the rules cannot prove safe is flagged; a
// reviewed-and-legitimate site is annotated in place:
//
//	start := time.Now() //philint:ignore wallclock harness timing, not sim state
//
// The directive suppresses exactly one rule on its own line (or, when
// written on a line by itself, on the line below) and must carry a
// reason. Unknown rules and missing reasons are themselves findings, so
// suppressions cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position. Whole-program
// findings additionally carry the sim-path entry the violation is reachable
// from: the primary position is the offending site, Entry the call site
// inside the entry function that starts the chain. An ignore directive at
// either location suppresses the finding.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	// Entry is the secondary attribution of a transitive finding (zero
	// Filename when the finding is purely local).
	Entry token.Position
}

// String renders the finding in the canonical file:line: rule: message
// form emitted by cmd/philint and matched by the golden tests.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Rule is one named check over the type-checked module.
type Rule struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// AppliesTo reports whether the rule binds the package at the given
	// module-relative directory (e.g. "internal/cosmic", "cmd/phibench",
	// "." for the module root). The scoping encodes the determinism
	// contract: some rules are module-wide, others bind only the sim-path
	// packages. For dettaint the scope is the set of entry packages whose
	// call chains it follows.
	AppliesTo func(rel string) bool
	// Run inspects the module and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries the type-checked module through one rule's run.
type Pass struct {
	Mod  *Module
	Rule *Rule

	run *lintRun
}

// lintRun is the state every rule of one run shares.
type lintRun struct {
	dirs     []directive
	graph    *Graph
	findings []Finding
}

// Files returns the parsed files of the packages in the rule's scope.
func (p *Pass) Files() []*ast.File {
	var files []*ast.File
	for _, pkg := range p.Mod.Pkgs {
		if p.Rule.AppliesTo(pkg.Rel) {
			files = append(files, pkg.Files...)
		}
	}
	return files
}

// Graph returns the module call graph, built on first use and shared by
// every rule of the run.
func (p *Pass) Graph() *Graph {
	if p.run.graph == nil {
		p.run.graph = BuildGraph(p.Mod)
	}
	return p.run.graph
}

// Position resolves a token.Pos against the module's FileSet.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Mod.Fset.Position(pos)
}

// Report records a finding.
func (p *Pass) Report(f Finding) { p.run.findings = append(p.run.findings, f) }

// Reportf records a finding of the pass's rule at pos, with no entry
// attribution.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Finding{
		Pos:     p.Position(pos),
		Rule:    p.Rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether an ignore directive for rule covers pos —
// the hook dettaint uses to decide whether a package-scoped rule already
// sanctioned a source site, and whether that sanction extends to the sim
// path (it does for content-reviewed rules like mapiter, it does not for
// context-reviewed ones like wallclock).
func (p *Pass) SuppressedAt(rule string, pos token.Pos) bool {
	position := p.Position(pos)
	for _, d := range p.run.dirs {
		if d.rule == rule && d.file == position.Filename && d.line == position.Line {
			return true
		}
	}
	return false
}

// simPathPackages are the packages whose code runs under simulated time
// and must be bit-reproducible: everything between the event engine and
// the experiment drivers. cmd tools and offline packages (workload
// generation, metrics aggregation, reporting) sit outside the list but
// are still covered by the module-wide rules.
var simPathPackages = map[string]bool{
	"internal/sim":       true,
	"internal/phi":       true,
	"internal/cosmic":    true,
	"internal/condor":    true,
	"internal/core":      true,
	"internal/cluster":   true,
	"internal/faults":    true,
	"internal/scheduler": true,
}

// SimPath reports whether rel is one of the sim-path packages.
func SimPath(rel string) bool { return simPathPackages[rel] }

// allPackages is the AppliesTo for module-wide rules.
func allPackages(string) bool { return true }

// Rules returns the full suite in stable (report) order.
func Rules() []*Rule {
	return []*Rule{
		DetRand,
		WallClock,
		MapIter,
		FloatEq,
		SortStable,
		SimGoroutine,
		ObsAlloc,
		DetTaint,
		PureSelect,
	}
}

// RuleNames returns the rule names accepted by ignore directives. The
// pseudo-rule "philint" for malformed directives is not among them: it
// cannot be suppressed.
func RuleNames() map[string]bool {
	names := map[string]bool{}
	for _, r := range Rules() {
		names[r.Name] = true
	}
	return names
}

// Lint is the gate behind cmd/philint: it type-checks the packages as one
// module, runs the rules over it with package scoping, and applies the
// ignore directives (a transitive finding is suppressed by a directive at
// its primary position or at its entry attribution). Malformed directives
// surface as findings under the pseudo-rule "philint". A module that does
// not type-check yields exactly one "philint" finding carrying the type
// error: every rule reads types, so none runs.
func Lint(pkgs []*Package, rules []*Rule) []Finding {
	mod, err := TypeCheck(pkgs)
	if err != nil {
		return []Finding{{
			Pos:     token.Position{Filename: "(module)"},
			Rule:    "philint",
			Message: fmt.Sprintf("module does not type-check, no rule ran: %v", err),
		}}
	}
	known := RuleNames()
	var out []Finding
	var dirs []directive
	for _, pkg := range mod.Pkgs {
		pkgDirs, malformed := directives(pkg, known)
		out = append(out, malformed...)
		dirs = append(dirs, pkgDirs...)
	}
	for _, f := range run(mod, rules, dirs) {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// run applies each rule to the module and returns the raw findings, before
// suppression. dirs is what SuppressedAt consults.
func run(mod *Module, rules []*Rule, dirs []directive) []Finding {
	lr := &lintRun{dirs: dirs}
	for _, r := range rules {
		r.Run(&Pass{Mod: mod, Rule: r, run: lr})
	}
	return lr.findings
}

// directive is one parsed //philint:ignore comment.
type directive struct {
	file string
	line int
	rule string
}

const ignorePrefix = "philint:ignore"

// directives extracts the ignore directives from a package's comments and
// reports malformed ones (unknown rule, missing reason) as findings.
func directives(pkg *Package, known map[string]bool) ([]directive, []Finding) {
	var dirs []directive
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				switch {
				case len(fields) == 0:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: "ignore directive names no rule (want //philint:ignore <rule> <reason>)"})
				case !known[fields[0]]:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: fmt.Sprintf("ignore directive names unknown rule %q", fields[0])})
				case len(fields) < 2:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: fmt.Sprintf("ignore directive for %q gives no reason", fields[0])})
				default:
					// A trailing directive covers its own line; a
					// standalone one (nothing but whitespace before it)
					// covers the line below.
					line := pos.Line
					if isStandalone(pkg, pos) {
						line++
					}
					dirs = append(dirs, directive{file: pos.Filename, line: line, rule: fields[0]})
				}
			}
		}
	}
	return dirs, bad
}

// isStandalone reports whether only whitespace precedes the comment on
// its source line.
func isStandalone(pkg *Package, pos token.Position) bool {
	lines, ok := pkg.Lines[pos.Filename]
	if !ok || pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	line := lines[pos.Line-1]
	if pos.Column-1 > len(line) {
		return false
	}
	return strings.TrimSpace(line[:pos.Column-1]) == ""
}

// suppressed reports whether a directive covers the finding: same rule,
// same file, same (resolved) line — at the primary position, or, for a
// transitive finding, at its entry attribution.
func suppressed(f Finding, dirs []directive) bool {
	for _, d := range dirs {
		if d.rule != f.Rule {
			continue
		}
		if d.file == f.Pos.Filename && d.line == f.Pos.Line {
			return true
		}
		if f.Entry.Filename != "" && d.file == f.Entry.Filename && d.line == f.Entry.Line {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
