// Package netlink models a full-duplex network pipe with fixed bandwidth
// and round-trip latency — the simulation's stand-in for the 1 Gbps iSCSI
// path between the host and primary storage, and for the node-to-node
// links of the cluster layer. Optional seeded jitter and a fail-slow
// Degrade knob let the cluster chaos harness model degraded links without
// leaving virtual time.
package netlink

import (
	"fmt"
	"math/rand"

	"srccache/internal/vtime"
)

// bandwidth is per-direction bandwidth in bytes/s: the paper's 1 Gbps
// (125 MB/s) network.
const bandwidth = 125e6

// Config describes a link.
type Config struct {
	// RTT is the round-trip latency (default 200 µs).
	RTT vtime.Duration
	// Jitter, when positive, adds a uniformly distributed extra delay in
	// [0, Jitter] to every transfer, drawn from a rand seeded with Seed —
	// the per-packet variance a shared switch fabric exhibits. Zero keeps
	// the link perfectly smooth (the pre-cluster behavior).
	Jitter vtime.Duration
	// Seed selects the jitter sequence. Two links with equal Config produce
	// identical delay sequences for identical call sequences.
	Seed int64
}

// Validate fills defaults.
func (c Config) Validate() (Config, error) {
	if c.RTT == 0 {
		c.RTT = 200 * vtime.Microsecond
	}
	if c.RTT < 0 {
		return c, fmt.Errorf("netlink: negative rtt %v", c.RTT)
	}
	if c.Jitter < 0 {
		return c, fmt.Errorf("netlink: negative jitter %v", c.Jitter)
	}
	return c, nil
}

// Link is a full-duplex pipe. Send models host→storage transfers (writes),
// Recv models storage→host transfers (read payloads); the two directions
// contend independently.
type Link struct {
	cfg      Config
	rng      *rand.Rand // non-nil iff Jitter > 0
	factor   float64    // fail-slow multiplier, 1 = healthy
	upBusy   vtime.Time
	downBusy vtime.Time

	sentBytes int64
	recvBytes int64
}

// New builds a link from cfg.
func New(cfg Config) (*Link, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	l := &Link{cfg: cfg, factor: 1}
	if cfg.Jitter > 0 {
		l.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return l, nil
}

// Config returns the effective configuration.
func (l *Link) Config() Config { return l.cfg }

// Degrade sets the fail-slow multiplier applied to transfer and propagation
// times. Values below 1 restore healthy speed; the zero Link state is
// healthy.
func (l *Link) Degrade(factor float64) {
	if factor < 1 {
		factor = 1
	}
	l.factor = factor
}

// delay computes one transfer's service time: bandwidth time and half-RTT
// propagation stretched by the fail-slow factor, plus the seeded jitter
// draw. The jitter rand advances exactly once per transfer, so the delay
// sequence is a pure function of (Config, call sequence).
func (l *Link) delay(n int64) (xfer, prop vtime.Duration) {
	xfer = vtime.TransferTime(n, bandwidth)
	prop = l.cfg.RTT / 2
	if l.factor > 1 {
		xfer = vtime.Duration(float64(xfer) * l.factor)
		prop = vtime.Duration(float64(prop) * l.factor)
	}
	if l.rng != nil {
		xfer += vtime.Duration(l.rng.Int63n(int64(l.cfg.Jitter) + 1))
	}
	return xfer, prop
}

// Send transfers n bytes host→storage starting no earlier than at and
// returns the arrival time at the far end (propagation included).
func (l *Link) Send(at vtime.Time, n int64) vtime.Time {
	xfer, prop := l.delay(n)
	start := vtime.Max(at, l.upBusy)
	l.upBusy = start.Add(xfer)
	l.sentBytes += n
	return l.upBusy.Add(prop)
}

// Recv transfers n bytes storage→host starting no earlier than at and
// returns the arrival time at the host.
func (l *Link) Recv(at vtime.Time, n int64) vtime.Time {
	xfer, prop := l.delay(n)
	start := vtime.Max(at, l.downBusy)
	l.downBusy = start.Add(xfer)
	l.recvBytes += n
	return l.downBusy.Add(prop)
}

// SentBytes reports cumulative host→storage traffic.
func (l *Link) SentBytes() int64 { return l.sentBytes }

// RecvBytes reports cumulative storage→host traffic.
func (l *Link) RecvBytes() int64 { return l.recvBytes }
