// Package analysistest is a shared test helper: exempt by rule.
package analysistest

// Helper is called only by other packages' tests.
func Helper() {}
