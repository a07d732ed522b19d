package dettaint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/dettaint"
)

func TestIntraPackage(t *testing.T) {
	a := dettaint.New(dettaint.Config{
		Roots: map[string][]string{"det": nil},
	})
	analysistest.Run(t, "testdata", a, "det")
}

// TestDeterminism runs the depth-zero rule on its own: wall-clock reads and
// ambient draws in function bodies and var initializers, and the
// line-scoped suppression.
func TestDeterminism(t *testing.T) {
	a := dettaint.New(dettaint.Config{
		Roots: map[string][]string{"determinism": nil},
	})
	analysistest.Run(t, "testdata", a, "determinism")
}

func TestCrossPackage(t *testing.T) {
	a := dettaint.New(dettaint.Config{
		Roots: map[string][]string{"b": nil},
	})
	// Fixture a is analyzed first (facts exported, nothing reported — not
	// a root package), then b imports both the package and its summaries.
	analysistest.Run(t, "testdata", a, "a", "b")
}

func TestNamedRoots(t *testing.T) {
	a := dettaint.New(dettaint.Config{
		Roots: map[string][]string{"roots": {"Watched"}},
	})
	analysistest.Run(t, "testdata", a, "roots")
}
