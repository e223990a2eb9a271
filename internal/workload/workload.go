// Package workload generates block I/O request streams: an FIO-like
// synthetic generator (uniform random, sequential and Zipfian patterns
// with configurable read fraction and request size), used by the
// benchmark runner to reproduce the paper's FIO experiments and as the
// substrate for synthetic trace generation.
package workload

import (
	"fmt"
	"math/rand"

	"srccache/internal/blockdev"
)

// Source yields requests for the closed-loop runner. Next returns ok=false
// when the stream is exhausted (synthetic generators are infinite; trace
// replays end).
type Source interface {
	Next() (blockdev.Request, bool)
}

// Pattern selects the access-offset distribution.
type Pattern int

// Supported patterns.
const (
	// UniformRandom picks offsets uniformly over the span (FIO's default
	// "randwrite"/"randread" distribution used in Tables 2 and 3).
	UniformRandom Pattern = iota + 1
	// Sequential walks the span in order, wrapping at the end.
	Sequential
	// Zipf skews accesses with exponent Theta.
	Zipf
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Sequential:
		return "sequential"
	case Zipf:
		return "zipfian"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Config describes a generator.
type Config struct {
	// Pattern is the offset distribution (default UniformRandom).
	Pattern Pattern
	// Span is the addressable byte range (required, page-aligned).
	Span int64
	// Offset shifts the range start (default 0).
	Offset int64
	// RequestBytes is the fixed request size (default 4 KiB).
	RequestBytes int64
	// ReadFraction is the probability a request is a read (default 0).
	ReadFraction float64
	// Theta is the Zipfian exponent, in (0, 1) (default 0.99).
	Theta float64
	// Seed makes the stream deterministic.
	Seed int64
}

// Validate fills defaults and checks invariants.
func (c Config) Validate() (Config, error) {
	if c.Pattern == 0 {
		c.Pattern = UniformRandom
	}
	if c.Pattern < UniformRandom || c.Pattern > Zipf {
		return c, fmt.Errorf("workload: unknown %v", c.Pattern)
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = blockdev.PageSize
	}
	if c.RequestBytes%blockdev.PageSize != 0 || c.RequestBytes <= 0 {
		return c, fmt.Errorf("workload: request size %d must be a positive page multiple", c.RequestBytes)
	}
	if c.Span < c.RequestBytes {
		return c, fmt.Errorf("workload: span %d smaller than request size %d", c.Span, c.RequestBytes)
	}
	if c.Span%blockdev.PageSize != 0 || c.Offset%blockdev.PageSize != 0 || c.Offset < 0 {
		return c, fmt.Errorf("workload: span %d / offset %d must be page-aligned", c.Span, c.Offset)
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		return c, fmt.Errorf("workload: read fraction %v out of [0,1]", c.ReadFraction)
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		return c, fmt.Errorf("workload: zipf theta %v out of (0,1)", c.Theta)
	}
	return c, nil
}

// Generator is an infinite Source.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *Zipfian
	next int64 // sequential cursor, in slots
}

var _ Source = (*Generator)(nil)

// NewGenerator builds a generator from cfg.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Pattern == Zipf {
		g.zipf = NewZipfian(g.rng, g.slots(), cfg.Theta)
	}
	return g, nil
}

// slots reports how many request-aligned positions fit in the span.
func (g *Generator) slots() int64 { return g.cfg.Span / g.cfg.RequestBytes }

// Config returns the effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// Next yields the next request; a Generator never ends.
func (g *Generator) Next() (blockdev.Request, bool) {
	var slot int64
	switch g.cfg.Pattern {
	case Sequential:
		slot = g.next
		g.next = (g.next + 1) % g.slots()
	case Zipf:
		slot = g.zipf.Next()
	default: // UniformRandom
		slot = g.rng.Int63n(g.slots())
	}
	op := blockdev.OpWrite
	if g.cfg.ReadFraction > 0 && g.rng.Float64() < g.cfg.ReadFraction {
		op = blockdev.OpRead
	}
	return blockdev.Request{
		Op:  op,
		Off: g.cfg.Offset + slot*g.cfg.RequestBytes,
		Len: g.cfg.RequestBytes,
	}, true
}
