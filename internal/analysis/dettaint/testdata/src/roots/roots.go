// Package roots exercises per-function root selection: only Watched is
// configured as a root, so tick, Unwatched and the package-level var
// initializer stay unreported even though all three are tainted.
package roots

import "time"

func Watched() time.Time { return tick() } // want `Watched is required to be deterministic but reaches time.Now \(wall clock\) via roots.tick`

func Unwatched() time.Time { return tick() }

func tick() time.Time { return time.Now() }

var boot = time.Now()
