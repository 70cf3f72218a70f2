package deadcode_test

import (
	"testing"

	"rpbeat/internal/analysis/analysistest"
	"rpbeat/internal/analysis/deadcode"
)

// TestDeadcode runs the pass over a module of two programs and one internal
// package. The fixture's want comments mark what it must report (a function
// only a test calls, a method of a reached type whose name matches no
// interface, a constant nothing uses); a function reached from either main,
// methods reached only through io.Reader and http.Handler, a generic
// instantiation and a waived oracle with its dependencies must stay silent.
// analysistest fails on every want no diagnostic matched, so a pass that
// reports nothing fails here.
func TestDeadcode(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), deadcode.Analyzer,
		"dc/cmd/a", "dc/cmd/b", "dc/internal/lib")
}
