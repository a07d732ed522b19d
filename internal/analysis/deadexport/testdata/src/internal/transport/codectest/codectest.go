// Package codectest is a shared test helper: exempt by rule.
package codectest

// Helper is called only by other packages' tests.
func Helper() {}
