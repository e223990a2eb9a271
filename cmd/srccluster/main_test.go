package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefaultReport(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-seeds", "2", "-ops", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d with output:\n%s", code, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "seed   1:") || !strings.Contains(report, "seed   2:") {
		t.Fatalf("missing per-seed lines:\n%s", report)
	}
	if !strings.Contains(report, "2 seeds") || !strings.Contains(report, "0 violated") {
		t.Fatalf("missing summary:\n%s", report)
	}
}

func TestRunSingleSeedVerbose(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-seed", "7", "-ops", "200", "-v"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "seed   7") || !strings.Contains(out.String(), "Kills:") {
		t.Fatalf("verbose detail missing:\n%s", out.String())
	}
}

// TestRunRejectsBadFlags: an unknown flag is an error, and so is -json:
// the table is the only report.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, flag := range []string{"-bogus", "-json"} {
		var out bytes.Buffer
		if code, err := run([]string{flag}, &out); err == nil || code != 2 {
			t.Fatalf("%s: code %d err %v", flag, code, err)
		}
	}
}

// TestRunSupervisedReport: every run is supervised, so the default report
// carries the supervisor's columns.
func TestRunSupervisedReport(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-seeds", "3", "-ops", "300"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d with output:\n%s", code, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "supkills") || !strings.Contains(report, "midcommit") {
		t.Fatalf("supervised columns missing:\n%s", report)
	}
	if !strings.Contains(report, "0 violated") {
		t.Fatalf("supervised sweep violated invariants:\n%s", report)
	}
}
