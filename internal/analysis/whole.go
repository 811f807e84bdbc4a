package analysis

// Whole-program analyzer plumbing. The per-file Analyzers see one parsed
// package at a time; WholeAnalyzers see the type-checked module and its
// call graph, so their findings can cross function and package boundaries.
// A transitive finding is attributed to two locations — the offending site
// (primary position) and the sim-path entry whose call chain reaches it —
// and an ignore directive at either location suppresses it.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// WholeAnalyzer is one named rule over the type-checked module.
type WholeAnalyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*ModulePass)
}

// ModulePass carries the typed module, its call graph, and the directive
// table through one whole-analyzer run.
type ModulePass struct {
	Mod   *Module
	Graph *Graph

	dirs     []directive
	findings *[]Finding
}

// Position resolves a token.Pos against the module's FileSet.
func (p *ModulePass) Position(pos token.Pos) token.Position {
	return p.Mod.Fset.Position(pos)
}

// Report records a finding.
func (p *ModulePass) Report(f Finding) { *p.findings = append(*p.findings, f) }

// Reportf records a finding at pos with no entry attribution.
func (p *ModulePass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	p.Report(Finding{
		Pos:     p.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether an ignore directive for rule covers pos —
// the hook dettaint uses to decide whether a per-file rule already
// sanctioned a source site, and whether that sanction extends to the sim
// path (it does for content-reviewed rules like mapiter, it does not for
// context-reviewed ones like wallclock).
func (p *ModulePass) SuppressedAt(rule string, pos token.Pos) bool {
	position := p.Position(pos)
	for _, d := range p.dirs {
		if d.rule == rule && d.file == position.Filename && d.line == position.Line {
			return true
		}
	}
	return false
}

// WholeAnalyzers returns the whole-program suite in stable (report) order.
func WholeAnalyzers() []*WholeAnalyzer {
	return []*WholeAnalyzer{
		DetTaint,
		PureSelect,
	}
}

// AllRuleNames returns every rule name accepted by ignore directives:
// per-file rules, whole-program rules, and the pseudo-rule for malformed
// directives is excluded (it cannot be suppressed).
func AllRuleNames() map[string]bool {
	names := AnalyzerNames()
	for _, wa := range WholeAnalyzers() {
		names[wa.Name] = true
	}
	return names
}

// LintAll is the full gate behind cmd/philint: the per-file suite with
// package scoping, then the whole-program suite over the type-checked
// module, with suppression applied across both (a whole-program finding is
// suppressed by a directive at its primary position or at its entry
// attribution). Per-file rules never require type information, so a module
// that fails to type-check still gets per-file findings plus one "philint"
// finding describing the type error.
func LintAll(pkgs []*Package, analyzers []*Analyzer, whole []*WholeAnalyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, wa := range whole {
		known[wa.Name] = true
	}

	var out []Finding
	var raw []Finding
	var dirs []directive
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Pkg: pkg, Index: pkg.Index(), findings: &raw}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Rel) {
				continue
			}
			a.Run(pass)
		}
		pkgDirs, malformed := directives(pkg, known)
		out = append(out, malformed...)
		dirs = append(dirs, pkgDirs...)
	}

	if len(whole) > 0 && len(pkgs) > 0 {
		mod, err := TypeCheck(pkgs)
		if err != nil {
			raw = append(raw, Finding{
				Pos:     token.Position{Filename: "(module)"},
				Rule:    "philint",
				Message: fmt.Sprintf("whole-program rules skipped: %v", err),
			})
		} else {
			graph := BuildGraph(mod)
			mp := &ModulePass{Mod: mod, Graph: graph, dirs: dirs, findings: &raw}
			for _, wa := range whole {
				wa.Run(mp)
			}
		}
	}

	for _, f := range raw {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// funcDisplayName renders a function for messages: "core.Schedule",
// "condor.(*Pool).negotiate".
func funcDisplayName(fi *FuncInfo) string {
	base := fi.Pkg.Rel
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if base == "." || base == "" {
		base = ModulePath
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		recv := recvTypeExpr(fi)
		return base + ".(" + recv + ")." + fi.Fn.Name()
	}
	return base + "." + fi.Fn.Name()
}

// recvTypeExpr renders the receiver type as written ("*Pool", "Dog").
func recvTypeExpr(fi *FuncInfo) string {
	t := fi.Decl.Recv.List[0].Type
	return typeExprString(t)
}

// recvTypeName renders the receiver's bare type name ("Pool", "Dog").
func recvTypeName(fi *FuncInfo) string {
	return strings.TrimPrefix(recvTypeExpr(fi), "*")
}

func typeExprString(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	case *ast.IndexListExpr:
		return typeExprString(v.X)
	case *ast.ParenExpr:
		return typeExprString(v.X)
	}
	return "?"
}

// chainString renders a call chain for a finding message:
// "core.Schedule → helper.Pick → time.Now". The final element is the
// description of the source, supplied by the caller.
func chainString(chain []ChainLink, source string) string {
	var sb strings.Builder
	for _, link := range chain {
		sb.WriteString(funcDisplayName(link.Fn))
		sb.WriteString(" → ")
	}
	sb.WriteString(source)
	return sb.String()
}
