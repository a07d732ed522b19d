// Package via is the public facade: outside the checked packages.
package via

// Facade is public API with no caller in the module.
func Facade() {}
