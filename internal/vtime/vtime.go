// Package vtime provides the virtual-time primitives used by the storage
// simulation. All device models and cache layers operate on Time values
// rather than wall-clock time, which makes every experiment deterministic
// and independent of host hardware.
package vtime

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, expressed in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so the familiar constants (time.Millisecond etc.) convert
// directly.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromStd converts a time.Duration into a virtual Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Std converts a virtual Duration into a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using the time package conventions.
func (d Duration) String() string { return time.Duration(d).String() }

// Add advances t by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as an offset from simulation start.
func (t Time) String() string { return fmt.Sprintf("t+%s", time.Duration(t)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// TransferTime reports how long moving n bytes takes at bytesPerSec. A
// non-positive rate means "infinitely fast" and yields zero, which lets
// callers disable a bandwidth constraint without special-casing.
func TransferTime(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bytesPerSec * float64(Second))
}

// Rate reports the throughput, in bytes per second, of moving n bytes over
// elapsed. A non-positive elapsed yields zero.
func Rate(n int64, elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// MBPerSec reports the throughput of moving n bytes over elapsed in MB/s
// (decimal megabytes, as used throughout the paper).
func MBPerSec(n int64, elapsed Duration) float64 {
	return Rate(n, elapsed) / 1e6
}
