package ioerr_test

import (
	"testing"

	"srccache/internal/analysis/analysistest"
)

func TestIOErr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		"c/use",   // positive: discards at the call site
		"c/other", // negative: same method names elsewhere
	)
}

func TestErrPath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		"e/use", // bound errors left unread on some path
	)
}
