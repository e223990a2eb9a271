package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/trace"
)

func TestGenerateSingleTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-trace", "prxy0", "-n", "500", "-scale", "0.001"}, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("%d records", len(recs))
	}
	// prxy0 is 3% reads: the stream must be write-dominated.
	reads := 0
	for _, r := range recs {
		if r.Op == blockdev.OpRead {
			reads++
		}
		if r.Host != "prxy0" {
			t.Fatalf("host %q", r.Host)
		}
	}
	if reads > 50 {
		t.Fatalf("%d reads of 500 for a 3%%-read trace", reads)
	}
}

func TestGenerateGroupToFile(t *testing.T) {
	path := t.TempDir() + "/write.csv"
	var out bytes.Buffer
	if err := run([]string{"-group", "Write", "-n", "20", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20*10 { // 10 traces in the Write group
		t.Fatalf("%d records", len(recs))
	}
	// One file in time order: the traces interleave, as in an MSR file.
	hosts := map[string]bool{}
	for i, r := range recs {
		hosts[r.Host] = true
		if i > 0 && r.Timestamp < recs[i-1].Timestamp {
			t.Fatalf("record %d at %v follows one at %v", i, r.Timestamp, recs[i-1].Timestamp)
		}
	}
	if len(hosts) != 10 {
		t.Fatalf("%d distinct traces", len(hosts))
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("missing selector err = %v", err)
	}
	if err := run([]string{"-trace", "nope"}, &out); err == nil {
		t.Fatal("unknown trace accepted")
	}
	if err := run([]string{"-group", "nope"}, &out); err == nil {
		t.Fatal("unknown group accepted")
	}
}
