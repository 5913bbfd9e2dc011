package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"drainnet/internal/nas"
)

// runNAS runs the command in-process and returns its exit status and
// both output streams.
func runNAS(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestBothOraclesShareOneLoop: each oracle runs under the random and
// the evolution strategy through the one search loop and crowns a
// winner.
func TestBothOraclesShareOneLoop(t *testing.T) {
	for _, oracle := range []string{"sim", "measured"} {
		for _, strategy := range []string{"random", "evolution"} {
			args := []string{"-oracle", oracle, "-strategy", strategy, "-proxy", "-tiny", "-trials", "4", "-threshold", "0.9"}
			if oracle == "measured" {
				args = append(args, "-max-batch", "2")
			}
			code, stdout, stderr := runNAS(args...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
			}
			for _, want := range []string{"(" + oracle + " oracle)", "strategy=" + strategy, "winner: sppnet-"} {
				if !strings.Contains(stdout, want) {
					t.Fatalf("%v: output lacks %q:\n%s", args, want, stdout)
				}
			}
		}
	}
}

// TestMeasuredPersistsWinner: -out and -cost-cache work under the
// measured oracle, and the plan loads back.
func TestMeasuredPersistsWinner(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	code, stdout, stderr := runNAS("-oracle", "measured", "-proxy", "-tiny", "-trials", "2", "-threshold", "0.9",
		"-max-batch", "2", "-out", out, "-cost-cache", filepath.Join(dir, "costs.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "winner persisted") || !strings.Contains(stdout, "cost cache:") {
		t.Fatalf("output:\n%s", stdout)
	}
	if _, err := nas.LoadWinnerPlan(filepath.Join(out, "plan.json")); err != nil {
		t.Fatal(err)
	}
}

// TestSimRefusesMeasuredFlags: a flag only the measured oracle reads
// exits 2 under the sim oracle instead of being ignored.
func TestSimRefusesMeasuredFlags(t *testing.T) {
	for _, flag := range [][]string{
		{"-cost-cache", "costs.json"},
		{"-max-batch", "16"},
		{"-out", "nas-out"},
	} {
		args := append([]string{"-proxy", "-tiny", "-trials", "2"}, flag...)
		code, stdout, stderr := runNAS(args...)
		if code != 2 || !strings.Contains(stderr, flag[0]) || stdout != "" {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", args, code, stdout, stderr, flag[0])
		}
	}
	if code, _, stderr := runNAS("-oracle", "gpu"); code != 2 {
		t.Fatalf("unknown oracle: exit %d, stderr %q", code, stderr)
	}
}
