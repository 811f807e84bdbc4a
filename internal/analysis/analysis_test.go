package analysis

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// loadFixture parses one testdata fixture directory as a package.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkg, err := LoadDir(token.NewFileSet(), dir, filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("load %s: no Go files", dir)
	}
	return pkg
}

// packageRules is the suite without the whole-program rules dettaint and
// pureselect, which follow call chains rather than read one package.
func packageRules() []*Rule {
	var out []*Rule
	for _, r := range Rules() {
		if r != DetTaint && r != PureSelect {
			out = append(out, r)
		}
	}
	return out
}

// runRaw applies one rule to a type-checked module with no suppression
// directives: the primitive behind the rule goldens.
func runRaw(mod *Module, r *Rule) []Finding {
	findings := run(mod, []*Rule{r}, nil)
	sortFindings(findings)
	return findings
}

// render formats findings with basename-relative paths, one per line, in
// the same file:line: rule: message form cmd/philint prints.
func render(findings []Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestGolden runs every package-scoped rule over its fixture directory and
// compares the findings with the checked-in expect.txt: each rule must fire
// on its flagged fixtures and stay silent on clean.go. The whole-program
// rules have multi-package fixtures and their own tests.
func TestGolden(t *testing.T) {
	for _, a := range packageRules() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			mod, err := TypeCheck([]*Package{loadFixture(t, dir)})
			if err != nil {
				t.Fatal(err)
			}
			// The fixture sits under testdata/, outside every package
			// scope; the golden pins what the rule detects, TestScoping
			// where it binds.
			everywhere := *a
			everywhere.AppliesTo = allPackages
			findings := runRaw(mod, &everywhere)

			flaggedSeen := false
			for _, f := range findings {
				base := filepath.Base(f.Pos.Filename)
				if base == "clean.go" {
					t.Errorf("%s fired on clean fixture: %s", a.Name, f)
				}
				if f.Rule != a.Name {
					t.Errorf("%s reported foreign rule %q", a.Name, f.Rule)
				}
				flaggedSeen = true
			}
			if !flaggedSeen {
				t.Errorf("%s reported nothing; want findings on the flagged fixture", a.Name)
			}

			got := render(findings)
			goldenPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSuppression runs the package-scoped rules through Lint over the
// suppression fixture, with the package placed in a sim-path directory so
// every one of them is in scope. It pins that a directive silences exactly
// its rule on exactly its line, and that malformed directives are findings.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "suppress"))
	pkg.Rel = "internal/sim" // engage the sim-path-scoped rules
	got := render(Lint([]*Package{pkg}, packageRules()))

	goldenPath := filepath.Join("testdata", "suppress", "expect.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("suppression results mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The structural assertions behind the golden file, spelled out so a
	// regenerated golden cannot quietly weaken them.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.Contains(line, "suppress.go:12:") {
			t.Errorf("trailing directive failed to suppress its line: %s", line)
		}
		if strings.Contains(line, "mapiter") {
			t.Errorf("standalone mapiter directive failed to suppress: %s", line)
		}
	}
	for _, wantFrag := range []string{
		"suppress.go:13: wallclock:", // the undirected clock read survives
		"suppress.go:21: wallclock:", // wrong-rule directive suppresses nothing
		"names no rule",
		"unknown rule \"nosuchrule\"",
		"gives no reason",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("missing expected finding %q in:\n%s", wantFrag, got)
		}
	}
}

// TestScoping pins each rule's package scope: where the determinism
// contract binds, and where it deliberately does not.
func TestScoping(t *testing.T) {
	cases := []struct {
		rule *Rule
		rel  string
		want bool
	}{
		{DetRand, "internal/rng", false}, // the sanctioned wrapper
		{DetRand, "internal/workload", true},
		{DetRand, "cmd/phigen", true},
		{WallClock, "internal/sim", true},
		{WallClock, "cmd/phibench", true}, // module-wide: annotate, don't exempt
		{WallClock, ".", true},
		{MapIter, "internal/cosmic", true},
		{MapIter, "internal/faults", true},
		{MapIter, "internal/obs", false}, // offline reporting is out of sim scope
		{FloatEq, "internal/knapsack", true},
		{FloatEq, "internal/core", true},
		{FloatEq, "internal/estimator", true},
		{FloatEq, "internal/obs", false},
		{SortStable, "internal/knapsack", true},
		{SortStable, "internal/condor", true},
		{SortStable, "internal/metrics", false},
		{SimGoroutine, "internal/phi", true},
		{SimGoroutine, "internal/condor", true},
		{SimGoroutine, "internal/sim", true}, // the engine is serial too
		{SimGoroutine, "internal/obs", false},
		{SimGoroutine, "cmd/phibench", false},
	}
	for _, tc := range cases {
		if got := tc.rule.AppliesTo(tc.rel); got != tc.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", tc.rule.Name, tc.rel, got, tc.want)
		}
	}
}

// TestSimGoroutineCoversEngine runs simgoroutine the way philint does, with
// package scoping applied, on a fixture playing internal/sim: the engine is
// serial, so a goroutine or a sync primitive in it is flagged like anywhere
// else on the sim path.
func TestSimGoroutineCoversEngine(t *testing.T) {
	pkg, err := LoadDir(token.NewFileSet(), filepath.Join("testdata", "simgoroutine", "engine"), "internal/sim")
	if err != nil || pkg == nil {
		t.Fatalf("load engine fixture: %v", err)
	}
	got := render(Lint([]*Package{pkg}, []*Rule{SimGoroutine}))
	for _, want := range []string{
		"engine.go:8: simgoroutine: sync.WaitGroup",
		"engine.go:14: simgoroutine: go statement spawns a host goroutine",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing finding %q in:\n%s", want, got)
		}
	}
}

// TestModuleIsClean is the in-process version of the make lint gate: the
// tree itself must carry zero unsuppressed findings, so a regression
// shows up in go test as well as in CI.
func TestModuleIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; walk is broken", len(pkgs))
	}
	findings := Lint(pkgs, Rules())
	for _, f := range findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
}

// TestLintReportsTypeError: every rule reads go/types, so a module that
// does not type-check gets exactly one "philint" finding at (module)
// carrying the type error, and no rule findings — not even for the
// wall-clock read sitting next to the error.
func TestLintReportsTypeError(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "typeerror"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := Lint(pkgs, Rules())
	if len(got) != 1 {
		t.Fatalf("want exactly one finding, got %d:\n%s", len(got), render(got))
	}
	f := got[0]
	if f.Rule != "philint" || f.Pos.Filename != "(module)" {
		t.Errorf("want a philint finding at (module), got %s", f)
	}
	for _, want := range []string{"core.go:9:", "cannot use"} {
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding does not carry the type error (%q): %s", want, f)
		}
	}
}

// TestLoadModuleRejectsUnmatchedPattern: a typo'd package pattern must be
// an error, not a vacuously clean lint run.
func TestLoadModuleRejectsUnmatchedPattern(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pats := range [][]string{
		{"./nosuchdir"},
		{"./nosuchdir/..."},
		{"./internal/...", "./typo"},
	} {
		if _, err := LoadModule(root, pats); err == nil {
			t.Errorf("LoadModule(%q) succeeded, want unmatched-pattern error", pats)
		}
	}
	if _, err := LoadModule(root, []string{"./internal/sim", "./cmd/..."}); err != nil {
		t.Errorf("LoadModule with valid patterns failed: %v", err)
	}
}
