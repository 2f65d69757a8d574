package analysis_test

import (
	"testing"

	"vampos/internal/analysis"
	"vampos/internal/analysis/analysistest"
)

// TestSchedOnly flags raw go statements and sync imports in an
// ordinary package, while a //vampos:allow with a justification
// silences the one deliberate use.
func TestSchedOnly(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), analysis.SchedOnly,
		"schedonly/a", map[string]string{
			"schedonly/a": "src/schedonly/a",
		})
}

// TestSchedOnlyWorkerPoolExempt poses a fixture as internal/campaign:
// its worker pool may use goroutines and sync primitives.
func TestSchedOnlyWorkerPoolExempt(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), analysis.SchedOnly,
		"vampos/internal/campaign", map[string]string{
			"vampos/internal/campaign": "src/schedonly/pool",
		})
}
