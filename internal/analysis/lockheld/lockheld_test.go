package lockheld_test

import (
	"testing"

	"srccache/internal/analysis/analysistest"
)

func TestLockHeld(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), "l/use")
}
