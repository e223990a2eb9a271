package determinism_test

import (
	"testing"

	"srccache/internal/analysis/analysistest"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		"a/internal/src", // positive: wall-clock reads
		"a/tools",        // negative: outside the simulation list
	)
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		"a/internal/flash", // positive: global math/rand and a clock seed
		"a/tools",          // negative: outside the simulation list
	)
}
