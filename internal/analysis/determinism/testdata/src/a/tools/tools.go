// Negative fixture: tooling packages outside the simulation list may read
// the wall clock and draw from global math/rand freely.
package tools

import (
	"math/rand"
	"time"
)

func Stopwatch() time.Duration {
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(t0)
}

func Jitter() int { return rand.Intn(100) }
