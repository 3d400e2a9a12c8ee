package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArg, as the first argument of the test binary, makes it run
// main() on the remaining arguments instead of the tests, so exit-code
// tests can drive the real command line in a child process.
const mainArg = "neuroc-bench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// -tier translated named an execution tier that no longer exists: it
// must fail like any unknown tier, with the valid tiers listed, before
// any experiment runs — not panic.
func TestRemovedTierRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg, "-exp", "table1", "-tier", "translated")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("running neuroc-bench: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown tier "translated" (want auto, legacy, or predecoded)`) {
		t.Errorf("stderr does not name the valid tiers: %q", stderr.String())
	}
	if strings.Contains(stderr.String(), "panic") {
		t.Errorf("neuroc-bench panicked: %s", stderr.String())
	}
}
