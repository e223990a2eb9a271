package engine

import (
	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Serial is the deterministic virtual-time view of an engine: the same
// routing, the same fragment walk and the same shard.do as Engine.Do, with
// the caller's virtual time carried in and the completion time carried
// out. It implements bench.Cache, so a sharded volume can be driven exactly
// as a flat one — byte-identical across runs, because a single caller
// decides the op order. Tests use it as the oracle for the started engine.
//
// Serial and concurrent mode are exclusive: once Start has run, serial
// calls are refused.
type Serial struct {
	e *Engine
}

var _ bench.Cache = (*Serial)(nil)

// Serial returns the deterministic view.
func (e *Engine) Serial() *Serial { return &Serial{e: e} }

// Submit executes the request's fragments in address order. Completion is
// the latest clock of the shards it touched; each shard's clock stays
// independently monotonic.
func (s *Serial) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if s.e.started.Load() {
		return at, ErrStarted
	}
	return s.e.submit(at, Request{Op: req.Op, Off: req.Off, Len: req.Len})
}

// Flush drains and flushes every shard.
func (s *Serial) Flush(at vtime.Time) (vtime.Time, error) {
	if s.e.started.Load() {
		return at, ErrStarted
	}
	return s.e.flush(at)
}

// Counters sums the shard counters. bench.Cache fixes the signature, so
// the refusal after Start (or Close) is a panic rather than an error.
func (s *Serial) Counters() bench.Counters {
	if s.e.started.Load() {
		panic("engine: Serial.Counters after Start; use Engine.Counters")
	}
	c, err := s.e.counters()
	if err != nil {
		panic(err)
	}
	return c
}

// CacheDevices concatenates every shard's SSDs, for device-level traffic
// accounting. The device set is fixed when the shard's cache is built.
func (s *Serial) CacheDevices() []blockdev.Device {
	if s.e.started.Load() {
		panic("engine: Serial.CacheDevices after Start")
	}
	var devs []blockdev.Device
	for _, sh := range s.e.shards {
		devs = append(devs, sh.cache.CacheDevices()...)
	}
	return devs
}
