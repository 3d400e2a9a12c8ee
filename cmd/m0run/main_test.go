package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// mainArg, as the first argument of the test binary, makes it run
// main() on the remaining arguments instead of the tests, so exit-code
// tests can drive the real command line in a child process.
const mainArg = "m0run-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// -batch used to silently ignore the single-run observability flags;
// they must now be reported as conflicts so the caller gets a clear
// error instead of an unprofiled run that looks profiled.
func TestBatchFlagConflicts(t *testing.T) {
	if got := batchFlagConflicts(false, 0, "", "", "", ""); len(got) != 0 {
		t.Errorf("no flags set, got conflicts %v", got)
	}
	got := batchFlagConflicts(true, 5, "out.folded", "p.json", "in.raw", "0x20000000")
	want := []string{"-profile", "-trace", "-folded", "-profile-json", "-in", "-dump-addr"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conflicts = %v, want %v", got, want)
	}
	if got := batchFlagConflicts(false, 1, "", "", "", ""); !reflect.DeepEqual(got, []string{"-trace"}) {
		t.Errorf("trace-only conflicts = %v", got)
	}
}

// -tier translated named an execution tier that no longer exists: it
// must fail like any unknown tier, with the valid tiers listed, before
// any file is read — not panic.
func TestRemovedTierRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg, "-img", "missing.bin", "-tier", "translated")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("running m0run: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown tier "translated" (want auto, legacy, or predecoded)`) {
		t.Errorf("stderr does not name the valid tiers: %q", stderr.String())
	}
	if strings.Contains(stderr.String(), "panic") {
		t.Errorf("m0run panicked: %s", stderr.String())
	}
}
