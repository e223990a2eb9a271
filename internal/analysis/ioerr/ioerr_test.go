package ioerr_test

import (
	"testing"

	"srccache/internal/analysis/analysistest"
	"srccache/internal/analysis/ioerr"
)

func TestIOErr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ioerr.Analyzer,
		"c/use",   // positive: discards at the call site
		"c/other", // negative: same method names elsewhere
	)
}

func TestErrPath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ioerr.Analyzer,
		"e/use", // bound errors left unread on some path
	)
}
