package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

func TestCatalogMatchesTable6(t *testing.T) {
	if len(WriteGroup) != 10 || len(MixedGroup) != 7 || len(ReadGroup) != 5 {
		t.Fatalf("group sizes %d/%d/%d, want 10/7/5",
			len(WriteGroup), len(MixedGroup), len(ReadGroup))
	}
	// Spot-check a few transcribed values.
	if WriteGroup[0].Name != "prxy0" || WriteGroup[0].ReadPct != 3 {
		t.Fatalf("prxy0 spec %+v", WriteGroup[0])
	}
	if ReadGroup[3].Name != "src21" || ReadGroup[3].ReadPct != 99 {
		t.Fatalf("src21 spec %+v", ReadGroup[3])
	}
	// Each group's working set is roughly 50 GB per the paper (decimal GB;
	// the Read group is dominated by msn5's 124 GB span but the paper
	// matched *working sets*, so allow a wide band on raw footprints).
	for name, specs := range Groups() {
		var footprint int64
		for _, s := range specs {
			footprint += s.FootprintBytes(1)
		}
		gb := float64(footprint) / 1e9
		if gb < 30 || gb > 500 {
			t.Fatalf("group %s footprint %.1f GB implausible", name, gb)
		}
	}
}

func TestGroupLookup(t *testing.T) {
	for _, name := range GroupNames() {
		specs, err := Group(name)
		if err != nil || len(specs) == 0 {
			t.Fatalf("Group(%s) = %v, %v", name, specs, err)
		}
	}
	if _, err := Group("nope"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestSynthValidation(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  SynthConfig
	}{
		{"missing spec", SynthConfig{}},
		{"negative scale", SynthConfig{Spec: WriteGroup[0], Scale: -1}},
		{"unaligned offset", SynthConfig{Spec: WriteGroup[0], Offset: 3}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSynth(tt.cfg); err == nil {
				t.Fatal("accepted invalid config")
			}
		})
	}
}

func TestSynthMatchesSpecStatistics(t *testing.T) {
	spec := Spec{Name: "synthcheck", MeanReqKB: 16, FootprintGB: 0.064, ReadPct: 30}
	s, err := NewSynth(SynthConfig{Spec: spec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var bytesTotal, reads int64
	for i := 0; i < n; i++ {
		r, ok := s.Next()
		if !ok {
			t.Fatal("synth ended")
		}
		if r.Off < 0 || r.Off+r.Len > s.Span() {
			t.Fatalf("request %v outside footprint %d", r, s.Span())
		}
		if r.Off%blockdev.PageSize != 0 || r.Len%blockdev.PageSize != 0 {
			t.Fatalf("unaligned request %v", r)
		}
		bytesTotal += r.Len
		if r.Op == blockdev.OpRead {
			reads++
		}
	}
	meanKB := float64(bytesTotal) / n / 1000
	if math.Abs(meanKB-16)/16 > 0.25 {
		t.Fatalf("mean request %.2f KB, want ~16", meanKB)
	}
	readPct := 100 * float64(reads) / n
	if math.Abs(readPct-30) > 3 {
		t.Fatalf("read pct %.1f, want ~30", readPct)
	}
}

func TestSynthDeterministicPerName(t *testing.T) {
	mk := func(name string) blockdev.Request {
		s, err := NewSynth(SynthConfig{Spec: Spec{Name: name, MeanReqKB: 8, FootprintGB: 0.01, ReadPct: 50}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := s.Next()
		return r
	}
	if mk("a") != mk("a") {
		t.Fatal("same name, same seed diverges")
	}
	if mk("a") == mk("b") {
		t.Fatal("different names produce identical streams")
	}
}

// TestSynthStreamGolden pins the first 100 000 records of one catalog trace
// to a digest captured before the Zipf sampler's constants were hoisted.
func TestSynthStreamGolden(t *testing.T) {
	s, err := NewSynth(SynthConfig{Spec: MixedGroup[2], Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [25]byte
	for i := 0; i < 100_000; i++ {
		r := s.NextRecord()
		b[0] = byte(r.Op)
		binary.LittleEndian.PutUint64(b[1:], uint64(r.Off))
		binary.LittleEndian.PutUint64(b[9:], uint64(r.Len))
		binary.LittleEndian.PutUint64(b[17:], uint64(r.Timestamp))
		h.Write(b[:])
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "83cbfd7d064620ce"; got != want {
		t.Fatalf("%s stream digest %s, want %s", s.cfg.Spec.Name, got, want)
	}
}

func TestSynthSequentialRuns(t *testing.T) {
	spec := Spec{Name: "seqcheck", MeanReqKB: 4, FootprintGB: 0.016, ReadPct: 0}
	s, err := NewSynth(SynthConfig{Spec: spec, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	var last int64 = -1
	const n = 5000
	for i := 0; i < n; i++ {
		r, _ := s.Next()
		if r.Off == last {
			seq++
		}
		last = r.Off + r.Len
	}
	frac := float64(seq) / n
	if frac < seqProb-0.2 || frac > seqProb+0.2 {
		t.Fatalf("sequential continuation fraction %.2f, want ~%v", frac, seqProb)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	spec := Spec{Name: "csvcheck", MeanReqKB: 12, FootprintGB: 0.01, ReadPct: 40}
	s, err := NewSynth(SynthConfig{Spec: spec, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = s.NextRecord()
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].Off != recs[i].Off || got[i].Len != recs[i].Len || got[i].Host != recs[i].Host {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVAlignsSectors(t *testing.T) {
	// A sector-aligned MSR record (offset 512, size 1024) must round
	// outward to page alignment.
	in := "128166372003061629,usr,0,Read,512,1024,1331\n"
	recs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Off != 0 || recs[0].Len != blockdev.PageSize {
		t.Fatalf("aligned to %d+%d, want 0+%d", recs[0].Off, recs[0].Len, blockdev.PageSize)
	}
}

// TestReadCSVRebasesFILETIME: an MSR file's absolute FILETIME ticks become
// offsets from its first record. Scaled before rebasing, 1.28e17 ticks
// overflow int64 nanoseconds and the timestamp comes out negative.
func TestReadCSVRebasesFILETIME(t *testing.T) {
	in := "128166372003061629,hm,1,Read,3154125824,4096,2709\n" +
		"128166372003071629,hm,1,Write,3154132992,8192,0\n"
	recs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Timestamp != 0 || recs[1].Timestamp != vtime.Millisecond {
		t.Fatalf("records %+v, want timestamps 0 and 1ms", recs)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, in := range []string{
		"1,h,0,Frob,0,4096,0\n",                   // unknown op
		"x,h,0,Read,0,4096,0\n",                   // bad timestamp
		"1,h,y,Read,0,4096,0\n",                   // bad disk
		"1,h,0,Read,z,4096,0\n",                   // bad offset
		"1,h,0,Read,0,z,0\n",                      // bad size
		"1,h,0\n",                                 // too few fields
		"0,h,0,Read,9223372036854771712,8192,0\n", // end past math.MaxInt64
		"0,h,0,Read,9223372036854771712,1,0\n",    // page-rounded end past it
		"1,h,0,Read,-4096,4096,0\n",               // negative offset
		"-1,h,0,Read,0,4096,0\n",                  // negative timestamp
		"0,h,0,Read,0,4096,0\n92233720368547759,h,0,Read,0,4096,0\n", // time offset past the largest vtime.Duration
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
	// Blank lines and zero-size records are skipped, not errors.
	recs, err := ReadCSV(strings.NewReader("\n1,h,0,Read,0,0,0\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// FuzzReadCSV: any input is refused, or parses to page-aligned records with
// offsets ≥ 0, ends ≤ math.MaxInt64 and timestamps ≥ 0 that WriteCSV writes
// back to the same records.
func FuzzReadCSV(f *testing.F) {
	f.Add("128166372003061629,hm,1,Read,3154125824,4096,2709\n")
	f.Add("0,h,0,Read,9223372036854771712,1,0\n")
	f.Add("128166372003061629,usr,0,Read,512,1024,1331\n\n128166372003061630,usr,0,write,8192,0,0\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Off < 0 || r.Len <= 0 || r.Off%blockdev.PageSize != 0 || r.Len%blockdev.PageSize != 0 ||
				r.Off > math.MaxInt64-r.Len || r.Timestamp < 0 {
				t.Fatalf("record %+v out of range", r)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if !slices.Equal(again, recs) {
			t.Fatalf("round trip %+v, want %+v", again, recs)
		}
	})
}

func TestReplayEnds(t *testing.T) {
	recs := []Record{
		{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize},
		{Op: blockdev.OpRead, Off: blockdev.PageSize, Len: blockdev.PageSize},
	}
	r := NewReplay(recs)
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("ended at %d", i)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("replay did not end")
	}
}
