// Command philint runs the determinism-and-simulation-hygiene analyzer
// suite (internal/analysis) over the module and reports findings in
// file:line: rule: message form (or machine-readable JSON with -json),
// exiting nonzero if any survive the per-line
// //philint:ignore <rule> <reason> suppressions.
//
// Usage:
//
//	go run ./cmd/philint ./...          # whole module (the make lint gate)
//	go run ./cmd/philint ./internal/... # report one subtree
//	go run ./cmd/philint -json ./...    # JSON findings on stdout
//	go run ./cmd/philint -rules         # describe the rules and exit
//
// The whole module is always parsed and type-checked — the whole-program
// rules (dettaint, pureselect) follow call chains across package
// boundaries, so a narrower load would silently weaken them. Package
// patterns only scope which findings are REPORTED: a finding is shown when
// its primary position or its entry attribution falls inside a matched
// package. A module that does not type-check is reported as one finding
// carrying the type error, and the run exits nonzero.
//
// -cache DIR memoizes a run's findings keyed on the SHA-256 of every loaded
// source file, so a warm `make lint` skips parsing, type checking, and
// analysis entirely. The analyzer's own sources (internal/analysis,
// cmd/philint) are part of the module walk and therefore of the key: editing
// a rule invalidates the cache automatically.
//
// Test files and the runnable demos under examples/ are outside the
// enforcement scope; everything else in internal/... and cmd/... is walked,
// parsed, and checked.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"phishare/internal/analysis"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "philint:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is philint invoked from directory dir with the given arguments. It
// returns the exit status: 0 clean, 1 findings, 2 usage or load errors.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("philint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	rules := flags.Bool("rules", false, "print each rule's name and contract, then exit")
	jsonOut := flags.Bool("json", false, "emit findings as JSON on stdout")
	cacheDir := flags.String("cache", "", "directory for the findings cache (empty disables caching)")
	flags.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: philint [-rules] [-json] [-cache dir] [packages]\n\n"+
				"packages scope reporting and default to ./... relative to the module root;\n"+
				"the whole module is always analyzed\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "philint:", err)
		return 2
	}

	if *rules {
		for _, r := range analysis.Rules() {
			fmt.Fprintf(stdout, "%-11s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return fail(err)
	}
	// Load everything: the whole-program rules need the full module. The
	// argument patterns are validated against the loaded set below and then
	// scope reporting only.
	pkgs, err := analysis.LoadModule(root, nil)
	if err != nil {
		return fail(err)
	}
	patterns := flags.Args()
	if err := validatePatterns(pkgs, patterns); err != nil {
		return fail(err)
	}

	findings, cached := cachedFindings(root, *cacheDir, pkgs)
	if !cached {
		findings = analysis.Lint(pkgs, analysis.Rules())
		writeCache(root, *cacheDir, pkgs, findings)
	}
	findings = filterByPatterns(root, findings, patterns)

	if *jsonOut {
		if err := writeJSON(stdout, root, findings); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			// Report paths relative to the invocation directory so the
			// file:line anchors are clickable from the terminal.
			if rel, err := filepath.Rel(dir, f.Pos.Filename); err == nil && f.Pos.Filename != "(module)" {
				f.Pos.Filename = rel
			}
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "philint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// validatePatterns rejects a pattern matching no loaded package: a typo'd
// path in the lint gate would otherwise pass vacuously.
func validatePatterns(pkgs []*analysis.Package, patterns []string) error {
	for _, p := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if analysis.MatchesPattern(pkg.Rel, p) {
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	return nil
}

// filterByPatterns keeps the findings whose primary or entry position falls
// inside a matched package. Module-level pseudo-findings (type errors) are
// always kept.
func filterByPatterns(root string, findings []analysis.Finding, patterns []string) []analysis.Finding {
	if len(patterns) == 0 {
		return findings
	}
	relOf := func(file string) (string, bool) {
		if file == "" || file == "(module)" {
			return "", false
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return "", false
		}
		return filepath.ToSlash(rel), true
	}
	var out []analysis.Finding
	for _, f := range findings {
		rel, ok := relOf(f.Pos.Filename)
		if !ok {
			out = append(out, f) // module-level pseudo-finding
			continue
		}
		keep := false
		for _, p := range patterns {
			if analysis.MatchesPattern(rel, p) {
				keep = true
				break
			}
			if erel, eok := relOf(f.Entry.Filename); eok && analysis.MatchesPattern(erel, p) {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, f)
		}
	}
	return out
}
