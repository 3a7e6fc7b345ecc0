package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv makes the test binary run swreport's main instead of its
// tests, with the arguments that follow it.
const mainArgsEnv = "SWREPORT_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainArgsEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// swreport runs the command with args and returns its stdout, stderr and
// exit status.
func swreport(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainArgsEnv+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestUnknownExperimentFailsFirst: every -exp id is checked before any
// cell simulates, so a bad id after a simulating experiment fails with
// status 1, prints no report and writes no run log.
func TestUnknownExperimentFailsFirst(t *testing.T) {
	logs := filepath.Join(t.TempDir(), "logs")
	stdout, stderr, code := swreport(t, "-exp", "f9,nosuch", "-j", "1", "-logs", logs)
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if want := `experiment nosuch: unknown experiment id "nosuch"`; !strings.Contains(stderr, want) {
		t.Errorf("stderr %q lacks %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("stdout %q, want nothing before the id is rejected", stdout)
	}
	if ents, err := os.ReadDir(logs); len(ents) > 0 || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("run-log dir holds %d entries (%v): a cell simulated before the id was rejected", len(ents), err)
	}
}
