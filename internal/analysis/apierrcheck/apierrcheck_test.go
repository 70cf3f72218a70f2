package apierrcheck_test

import (
	"testing"

	"rpbeat/internal/analysis/analysistest"
	"rpbeat/internal/analysis/apierrcheck"
)

func TestAPIErrCheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), apierrcheck.Analyzer,
		"rpbeat/internal/serve",
		"rpbeat/internal/gate",
		"rpbeat/internal/other",
	)
}
