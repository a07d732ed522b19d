// Package determinism holds the depth-zero cases: wall-clock reads and
// ambient randomness are flagged at the offending expression, in function
// bodies and in package-level var initializers (function literals
// included); explicit seeding and duration arithmetic pass.
package determinism

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

var epoch = time.Unix(0, 0)

var clock = time.Now // want `time.Now reads the wall clock in var clock, which is required to be deterministic; thread the virtual clock`

var roll = rand.Intn(3) // want `rand.Intn draws from the shared ambient source in var roll`

var stamp = func() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock in var stamp`
}

var interval = 3 * time.Second // ok: duration arithmetic

func wallClock() time.Duration {
	t := time.Now()        // want `time.Now reads the wall clock in wallClock`
	d := time.Since(epoch) // want `time.Since reads the wall clock`
	d += time.Until(epoch) // want `time.Until reads the wall clock`
	return d + t.Sub(epoch)
}

func durationsAreFine(step time.Duration) time.Duration {
	return 3*step + 250*time.Millisecond // ok: no clock read
}

func globalV1() int {
	return rand.Intn(10) // want `rand.Intn draws from the shared ambient source in globalV1, which is required to be deterministic; use a labeled stream from internal/stats.RNG`
}

func globalV2() float64 {
	return randv2.Float64() // want `rand.Float64 draws from the shared ambient source`
}

func seededV1() *rand.Rand {
	return rand.New(rand.NewSource(7)) // ok: explicit constructor
}

func seededV2() *randv2.Rand {
	return randv2.New(randv2.NewPCG(1, 2)) // ok: explicit constructor
}

// audited's suppression is line-scoped: it silences exactly the one use
// below it.
func audited() time.Time {
	//vialint:ignore dettaint fixture: demonstrates an audited wall-clock read
	return time.Now()
}
