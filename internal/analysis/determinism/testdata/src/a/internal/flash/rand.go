// Positive fixture: the package path ends in internal/flash, one of the
// packages whose randomness must come from injected seeded generators.
package flash

import (
	"math/rand"
	"time"
)

func globalDraws() int {
	rand.Seed(42)       // want `rand\.Seed uses global math/rand state`
	n := rand.Intn(10)  // want `rand\.Intn uses global math/rand state`
	f := rand.Float64() // want `rand\.Float64 uses global math/rand state`
	_ = f
	return n
}

// A wall-clock seed is a wall-clock read like any other.
func wallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `time\.Now reads the wall clock`
}

// Injected construction is the sanctioned pattern.
func injected(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func drawsFromInjected(rng *rand.Rand) int {
	return rng.Intn(10) // method on *rand.Rand, not global state
}

func allowed() int {
	return rand.Intn(3) //srclint:allow determinism fixture-only escape
}
