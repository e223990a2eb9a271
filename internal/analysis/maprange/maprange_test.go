package maprange_test

import (
	"testing"

	"srccache/internal/analysis/analysistest"
)

func TestMapRange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), "m")
}
