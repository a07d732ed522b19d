// Package det exercises intra-package taint in a package whose every
// function is a root: depth-zero wallclock/globalrand findings land on the
// offending expression, transitive and map-order ones on the declaration.
// The determinism fixture holds the depth-zero cases in full.
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Direct and helper sample the clock at depth zero: reported at the call.
func Direct() int64 { return time.Now().UnixNano() } // want `time.Now reads the wall clock in Direct`

func helper() time.Time { return time.Now() } // want `time.Now reads the wall clock in helper`

func Caller() time.Time { return helper() } // want `Caller is required to be deterministic but reaches time.Now \(wall clock\) via det.helper`

// A package-level initializer that reaches the clock is reported at the var.
var started = helper() // want `var started is required to be deterministic but reaches time.Now \(wall clock\) via det.helper`

func ChainTwo() int64 { return Caller().UnixNano() } // want `reaches time.Now \(wall clock\) via det.Caller → det.helper`

// Ambient draws at depth zero; UsesAmbient is one hop away.
func Ambient() int { return rand.Intn(6) } // want `rand.Intn draws from the shared ambient source in Ambient`

func UsesAmbient() int { return Ambient() } // want `reaches rand.Intn \(ambient math/rand\) via det.Ambient; use a labeled stream from internal/stats.RNG`

// Seeded uses an explicit source: every call is a concrete method on
// *rand.Rand, not an ambient package-level draw.
func Seeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(6)
}

func MapPrint(m map[string]int) { // want `reaches map-iteration-order-dependent output \(printing inside a map range\)`
	for k := range m {
		fmt.Println(k)
	}
}

func MapUnsorted(m map[string]int) []string { // want `map-iteration-order-dependent output \(appends to out inside a map range with no later sort\)`
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// MapSorted collects then sorts: iteration order is laundered out.
func MapSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SliceRange is not a map range at all.
func SliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}

// Justified is live by design: the suppression must silence the finding.
//
//vialint:ignore dettaint fixture: wall-clock use is intentional here
func Justified() time.Time { return helper() }
