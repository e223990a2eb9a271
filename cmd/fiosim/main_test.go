package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"srccache/internal/trace"
)

func TestTargetsRun(t *testing.T) {
	for _, target := range []string{"ssd", "raid0", "raid5", "src", "bcache5", "flashcache5"} {
		t.Run(target, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-target", target, "-requests", "2000", "-ssdcap", "67108864",
			}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "throughput=") {
				t.Fatalf("no throughput line:\n%s", out.String())
			}
			if target == "src" && !strings.Contains(out.String(), "hit ratio=") {
				t.Fatal("cache metrics missing for src target")
			}
		})
	}
}

func TestPatterns(t *testing.T) {
	for _, pattern := range []string{"randwrite", "randread", "randrw", "write", "read", "zipf"} {
		var out bytes.Buffer
		err := run([]string{
			"-target", "ssd", "-pattern", pattern, "-requests", "500", "-ssdcap", "67108864",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
	}
}

func TestReplayTrace(t *testing.T) {
	// Generate a tiny trace inline.
	path := t.TempDir() + "/t.csv"
	lines := []string{
		"1,h,0,Write,0,4096,0",
		"2,h,0,Write,4096,4096,0",
		"3,h,0,Read,0,4096,0",
	}
	if err := writeFile(path, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-target", "src", "-replay", path, "-ssdcap", "67108864"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "requests=3") {
		t.Fatalf("replay did not issue 3 requests:\n%s", out.String())
	}
}

// TestReplaySizesPrimaryFromTrace replays what `tracegen -group Mixed -n
// 5000 -seed 3` writes: its records reach past four SSDs' capacity, so each
// cache target's primary must be sized from the trace. The file is in
// timestamp order, so it replays open-loop too.
func TestReplaySizesPrimaryFromTrace(t *testing.T) {
	specs, err := trace.Group("Mixed")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.SynthFile(specs, 5000, 1.0/16, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/mixed.csv"
	if err := writeFile(path, buf.String()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("requests=%d ", 5000*len(specs))
	for _, args := range [][]string{
		{"-target", "src"}, {"-target", "bcache5"}, {"-target", "flashcache5"},
		{"-target", "flashcache5", "-openloop"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "-replay", path), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("%v: replay output lacks %q:\n%s", args, want, out.String())
		}
	}
}

// TestReplayRefusesOverflowingRecord: a record whose end passes the largest
// int64 offset is refused by line, not replayed into a page-table index far
// past the volume.
func TestReplayRefusesOverflowingRecord(t *testing.T) {
	path := t.TempDir() + "/bad.csv"
	if err := writeFile(path, "0,h,0,Read,9223372036854771712,8192,0\n"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-target", "src", "-replay", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("replay of an overflowing record: err %v, want a line-1 refusal", err)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-target", "nope"}, &out); err == nil {
		t.Fatal("unknown target accepted")
	}
	if err := run([]string{"-pattern", "nope", "-requests", "10"}, &out); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if err := run([]string{"-replay", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestOpenLoopReplay(t *testing.T) {
	path := t.TempDir() + "/t.csv"
	var lines []string
	for i := 0; i < 20; i++ {
		// 100 µs apart in FILETIME ticks (1000 x 100 ns).
		lines = append(lines, fmt.Sprintf("%d,h,0,Write,%d,4096,0", i*1000, i*4096))
	}
	if err := writeFile(path, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-target", "ssd", "-replay", path, "-openloop", "-ssdcap", "67108864"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "requests=20") {
		t.Fatalf("open-loop replay output:\n%s", out.String())
	}
	// Open-loop requires a trace.
	if err := run([]string{"-target", "ssd", "-openloop"}, &out); err == nil {
		t.Fatal("openloop without replay accepted")
	}
}
