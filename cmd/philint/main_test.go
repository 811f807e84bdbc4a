package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestPhilintTypeErrorFailsGate: a module that does not type-check must
// fail the gate with the type error as its one reported finding, not pass
// it vacuously because no rule could run.
func TestPhilintTypeErrorFailsGate(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analysis", "testdata", "typeerror")
	var stdout, stderr bytes.Buffer
	if code := run(dir, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "(module):0: philint: module does not type-check") {
		t.Errorf("want one (module) type-error finding, got:\n%s", &stdout)
	}
}

// TestPhilintRulesList pins the rule names -rules prints, in report order:
// they are the names ignore directives accept.
func TestPhilintRulesList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0\nstderr:\n%s", code, &stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "detrand wallclock mapiter floateq sortstable simgoroutine obsalloc dettaint pureselect"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-rules lists %q, want %q", got, want)
	}
}
