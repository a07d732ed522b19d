package a

import "fmt"

// Live is called by cmd/x.
func Live() {}

// Dead is called only by a_test.go, which a load leaves out.
func Dead() {} // want `exported a\.Dead is referenced by no non-test code`

// BenchOnly is called only by the bench referrer's test file.
func BenchOnly() {}

// T reaches its callers as values.
type T struct{}

// M is called only through b.Mer.
func (T) M() {}

// String satisfies fmt.Stringer, an interface the standard library calls.
func (T) String() string { return fmt.Sprint("t") }

// OnlyTest is a method no non-test code calls.
func (T) OnlyTest() {} // want `exported a\.\(T\)\.OnlyTest is referenced by no non-test code`

// Self is named only inside its own declarations.
type Self struct{ next *Self } // want `exported a\.Self is referenced by no non-test code`

// Clone refers to Self, which does not make Self live.
func (s *Self) Clone() *Self { return s.next } // want `exported a\.\(\*Self\)\.Clone is referenced by no non-test code`

// Justified is kept on purpose.
//
//vialint:ignore deadexport kept as the fixture's justified entry
func Justified() {}

// Bare carries an ignore without a reason, which suppresses nothing and
// is itself reported.
func Bare() {} /* want `exported a\.Bare is referenced by no non-test code` `malformed //vialint:ignore` */ //vialint:ignore deadexport
