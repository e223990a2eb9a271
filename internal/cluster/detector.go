package cluster

import (
	"sort"

	"srccache/internal/vtime"
)

// Health is a member's classification, mirroring blockdev.FaultPlan's
// fault taxonomy one level up: Down is fail-stop (the node errors or does
// not answer), Slow is fail-slow (it answers, but at a latency that would
// stall every chain routed through it).
type Health int

const (
	Healthy Health = iota
	Slow
	Down
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Slow:
		return "slow"
	default:
		return "down"
	}
}

// DetectorConfig tunes the failure detector's thresholds.
type DetectorConfig struct {
	// Baseline is the expected healthy per-op round-trip latency; the
	// fail-slow test compares the observed EWMA against it.
	Baseline vtime.Duration
	// FailAfter classifies a member as Down after this many consecutive
	// failed observations (default 3) — transient hiccups below the run
	// length stay Healthy, matching the error-budget spirit of the repair
	// escalation in internal/src.
	FailAfter int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Baseline <= 0 {
		c.Baseline = vtime.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	return c
}

// score is one member's running observation state.
type score struct {
	consecFails int
	ewmaNs      float64
	samples     int
}

// Detector turns per-op latency/error observations into member health.
// It is a pure accumulator: feed it the same observation sequence and it
// classifies identically, which keeps the churn harness deterministic.
// Callers (the routing client, the ping sweep) own when to observe.
type Detector struct {
	cfg DetectorConfig
	m   map[string]*score
}

// NewDetector builds a detector.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), m: make(map[string]*score)}
}

// slowFactor classifies a member as Slow once its latency EWMA exceeds
// slowFactor×Baseline.
const slowFactor = 4

// ewmaAlpha weights the latest latency sample; 0.3 reacts to a developing
// fail-slow within a few observations without flapping on one outlier.
const ewmaAlpha = 0.3

// Observe records one interaction with a member: its round-trip latency
// and whether it failed (error, timeout, unreachable).
func (d *Detector) Observe(id string, lat vtime.Duration, failed bool) {
	s := d.m[id]
	if s == nil {
		s = &score{}
		d.m[id] = s
	}
	if failed {
		s.consecFails++
		return
	}
	s.consecFails = 0
	s.samples++
	if s.samples == 1 {
		s.ewmaNs = float64(lat)
		return
	}
	s.ewmaNs = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*s.ewmaNs
}

// ObserveOK records a successful interaction with no useful latency signal
// (data ops, whose duration scales with payload size rather than node
// health): it resets the consecutive-failure run so a recovered member
// climbs back to Healthy, but leaves the ping-driven latency EWMA alone.
func (d *Detector) ObserveOK(id string) {
	s := d.m[id]
	if s == nil {
		s = &score{}
		d.m[id] = s
	}
	s.consecFails = 0
}

// Forget drops a member's history — used when a member leaves the ring so
// a later rejoin starts fresh.
func (d *Detector) Forget(id string) { delete(d.m, id) }

// State classifies a member. Members never observed are Healthy: the
// detector must not block routing to a node it simply has not met.
func (d *Detector) State(id string) Health {
	s := d.m[id]
	if s == nil {
		return Healthy
	}
	if s.consecFails >= d.cfg.FailAfter {
		return Down
	}
	if s.samples >= 3 && s.ewmaNs > slowFactor*float64(d.cfg.Baseline) {
		return Slow
	}
	return Healthy
}

// EWMA reports a member's smoothed latency (0 if never observed
// successfully).
func (d *Detector) EWMA(id string) vtime.Duration {
	if s := d.m[id]; s != nil {
		return vtime.Duration(s.ewmaNs)
	}
	return 0
}

// Classified returns the IDs currently in each non-healthy state, sorted —
// the harness's coverage counters read these.
func (d *Detector) Classified() (down, slow []string) {
	for id := range d.m {
		switch d.State(id) {
		case Down:
			down = append(down, id)
		case Slow:
			slow = append(slow, id)
		}
	}
	sort.Strings(down)
	sort.Strings(slow)
	return down, slow
}
