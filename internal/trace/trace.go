// Package trace provides the workload-trace substrate for the paper's main
// experiments: the Table 6 catalog of Microsoft Production Server (MPS) and
// Microsoft Cambridge Server (MCS) traces, a synthetic generator that
// reproduces each trace's published first-order statistics (mean request
// size, footprint, read ratio), MSR-format CSV serialization, and a
// replayer usable as a workload source.
//
// The original traces are not redistributable, so experiments synthesize
// statistically matching streams (see DESIGN.md, substitution table); real
// MSR-format CSV files can be replayed instead when available.
package trace

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// Record is one trace event.
type Record struct {
	// Timestamp is the offset from the start of the trace.
	Timestamp vtime.Duration
	// Host names the traced server (e.g. "prxy").
	Host string
	// Disk is the volume number.
	Disk int
	// Op is OpRead or OpWrite.
	Op blockdev.Op
	// Off and Len are byte offset and length, page-aligned.
	Off, Len int64
}

// Spec describes one trace with the statistics the paper reports (Table 6).
type Spec struct {
	// Name is the paper's concatenated server+volume name, e.g. "prxy0".
	Name string
	// MeanReqKB is the mean request size in KB.
	MeanReqKB float64
	// FootprintGB is the touched address-space size in GB.
	FootprintGB float64
	// ReadPct is the percentage of requests that are reads.
	ReadPct float64
}

// The trace catalog, transcribed from Table 6.
var (
	// WriteGroup is the write-dominated trace set.
	WriteGroup = []Spec{
		{"prxy0", 7.07, 84.44, 3},
		{"exch9", 21.06, 110.46, 31},
		{"mds0", 9.59, 11.08, 29},
		{"mds1", 9.59, 11.08, 29},
		{"stg0", 11.95, 23.16, 31},
		{"msn0", 21.73, 31.28, 6},
		{"msn1", 17.84, 37.80, 44},
		{"src12", 29.25, 53.23, 16},
		{"src20", 7.59, 11.28, 12},
		{"src22", 56.31, 62.12, 36},
	}
	// MixedGroup mixes reads and writes.
	MixedGroup = []Spec{
		{"rsrch0", 9.07, 12.41, 11},
		{"exch5", 18.02, 85.628, 31},
		{"hm0", 8.88, 33.84, 32},
		{"fin0", 6.86, 34.91, 19},
		{"web0", 15.29, 29.60, 58},
		{"prn0", 12.53, 66.79, 19},
		{"msn4", 21.73, 31.28, 6},
	}
	// ReadGroup is the read-dominated trace set.
	ReadGroup = []Spec{
		{"ts0", 9.28, 15.95, 26},
		{"usr0", 22.81, 48.694, 72},
		{"proj3", 9.75, 20.87, 87},
		{"src21", 59.31, 37.20, 99},
		{"msn5", 10.01, 124, 75},
	}
)

// Groups maps the paper's group names to their trace sets.
func Groups() map[string][]Spec {
	return map[string][]Spec{
		"Write": WriteGroup,
		"Mixed": MixedGroup,
		"Read":  ReadGroup,
	}
}

// GroupNames returns the group names in the paper's presentation order.
func GroupNames() []string { return []string{"Write", "Mixed", "Read"} }

// Group returns the named trace set.
func Group(name string) ([]Spec, error) {
	specs, ok := Groups()[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown group %q", name)
	}
	return specs, nil
}

// FootprintBytes reports the trace footprint scaled by scale and rounded to
// pages.
func (s Spec) FootprintBytes(scale float64) int64 {
	b := int64(s.FootprintGB * scale * 1e9)
	b -= b % blockdev.PageSize
	if b < blockdev.PageSize {
		b = blockdev.PageSize
	}
	return b
}

// SynthConfig parameterizes synthesis of one trace.
type SynthConfig struct {
	Spec Spec
	// Scale shrinks the footprint (and with it the generated offsets) so
	// laptop-scale experiments preserve the cache:working-set ratio
	// (default 1.0).
	Scale float64
	// Offset places the trace's address range within the shared volume.
	Offset int64
	// Seed drives determinism; the trace name is mixed in.
	Seed int64
}

// The shape every synthesized trace shares beyond its Spec.
const (
	// theta is the Zipfian skew of the page popularity.
	theta = 0.99
	// seqProb is the probability a request continues the previous one
	// sequentially, modelling the run-length structure of server traces.
	seqProb = 0.3
	// writeHotFrac is the probability a write lands in the hot write
	// region; writeHotSpan is that region's fraction of the footprint.
	// Server write working sets are far smaller and hotter than their read
	// footprints — the property that makes log-cleaning victims largely
	// invalid in the original traces.
	writeHotFrac = 0.9
	writeHotSpan = 0.02
	// maxReqBytes caps a single request.
	maxReqBytes = 1 << 20
)

func (c SynthConfig) validate() (SynthConfig, error) {
	if c.Spec.Name == "" {
		return c, fmt.Errorf("trace: synth spec missing name")
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("trace: negative scale %v", c.Scale)
	}
	if c.Offset%blockdev.PageSize != 0 || c.Offset < 0 {
		return c, fmt.Errorf("trace: offset %d must be page-aligned", c.Offset)
	}
	return c, nil
}

// Synth generates an infinite request stream statistically matching a Spec.
// It implements workload.Source.
type Synth struct {
	cfg       SynthConfig
	rng       *rand.Rand
	zipf      *workload.Zipfian
	pages     int64
	meanPages float64
	lastEnd   int64 // byte offset just past the previous request, -1 if none
	now       vtime.Duration
}

var _ workload.Source = (*Synth)(nil)

// NewSynth builds a generator for cfg.
func NewSynth(cfg SynthConfig) (*Synth, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	for _, r := range cfg.Spec.Name {
		seed = seed*131 + int64(r)
	}
	rng := rand.New(rand.NewSource(seed))
	pages := cfg.Spec.FootprintBytes(cfg.Scale) / blockdev.PageSize
	meanPages := cfg.Spec.MeanReqKB * 1000 / float64(blockdev.PageSize)
	if meanPages < 1 {
		meanPages = 1
	}
	return &Synth{
		cfg:       cfg,
		rng:       rng,
		zipf:      workload.NewZipfian(rng, pages, theta),
		pages:     pages,
		meanPages: meanPages,
		lastEnd:   -1,
	}, nil
}

// Span reports the byte range the trace covers, starting at its offset.
func (s *Synth) Span() int64 { return s.pages * blockdev.PageSize }

// SynthFile synthesizes n records of each spec, placing each trace's span
// just past the previous one's, and merges the streams into one file's
// worth of records in timestamp order, as MSR files are ordered. Records
// with equal timestamps keep spec order.
func SynthFile(specs []Spec, n int64, scale float64, seed int64) ([]Record, error) {
	var recs []Record
	var offset int64
	for _, spec := range specs {
		s, err := NewSynth(SynthConfig{Spec: spec, Scale: scale, Offset: offset, Seed: seed})
		if err != nil {
			return nil, err
		}
		offset += s.Span()
		for range n {
			recs = append(recs, s.NextRecord())
		}
	}
	// Each stream is in time order already, so a stable sort is the merge.
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
	return recs, nil
}

// Next yields the next request.
func (s *Synth) Next() (blockdev.Request, bool) {
	rec := s.NextRecord()
	return blockdev.Request{Op: rec.Op, Off: rec.Off, Len: rec.Len}, true
}

// NextRecord yields the next request with trace metadata, advancing a
// synthetic clock at an exponential inter-arrival of 100 µs mean.
func (s *Synth) NextRecord() Record {
	// Request size: geometric-like around the published mean, in pages.
	pages := int64(1)
	if s.meanPages > 1 {
		pages = 1 + int64(s.rng.ExpFloat64()*(s.meanPages-1))
	}
	if pages > maxReqBytes/blockdev.PageSize {
		pages = maxReqBytes / blockdev.PageSize
	}
	if pages > s.pages {
		pages = s.pages
	}

	op := blockdev.OpWrite
	if s.rng.Float64()*100 < s.cfg.Spec.ReadPct {
		op = blockdev.OpRead
	}

	// Offset: sequential continuation with probability seqProb; otherwise
	// a Zipfian-popular page, with writes concentrated in the hot write
	// region.
	var page int64
	switch {
	case s.lastEnd >= 0 && s.rng.Float64() < seqProb:
		page = s.lastEnd
	case op == blockdev.OpWrite && s.rng.Float64() < writeHotFrac:
		hotPages := int64(float64(s.pages) * writeHotSpan)
		if hotPages < 1 {
			hotPages = 1
		}
		page = s.zipf.Next() % hotPages
	default:
		page = s.zipf.Next()
	}
	if page+pages > s.pages {
		page = s.pages - pages
	}
	s.lastEnd = (page + pages) % s.pages
	s.now += vtime.Duration(s.rng.ExpFloat64() * float64(100*vtime.Microsecond))
	return Record{
		Timestamp: s.now,
		Host:      s.cfg.Spec.Name,
		Op:        op,
		Off:       s.cfg.Offset + page*blockdev.PageSize,
		Len:       pages * blockdev.PageSize,
	}
}

// Replay is a finite Source over recorded events.
type Replay struct {
	recs []Record
	pos  int
}

var _ workload.Source = (*Replay)(nil)

// NewReplay wraps recs (not copied).
func NewReplay(recs []Record) *Replay { return &Replay{recs: recs} }

// Next yields the next recorded request until the trace ends.
func (r *Replay) Next() (blockdev.Request, bool) {
	if r.pos >= len(r.recs) {
		return blockdev.Request{}, false
	}
	rec := r.recs[r.pos]
	r.pos++
	return blockdev.Request{Op: rec.Op, Off: rec.Off, Len: rec.Len}, true
}
