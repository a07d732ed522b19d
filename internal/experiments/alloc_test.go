package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// allocCalls sizes the Env behind the allocation ceilings and
// BenchmarkExperiments: large enough that every experiment replays
// calls, small enough that the whole registry runs in a few seconds.
const allocCalls = 5000

var allocsPath = filepath.Join("testdata", "allocs.txt")

// Allocation counts are the part of an experiment's cost that repeats
// across runs and hosts, so they are what tier-1 gates; wall time is left
// to BenchmarkExperiments. A count may grow by allocHeadroom of itself
// plus allocSlack before the test fails. Counts move by a few allocations
// from run to run, which the slack absorbs. The headroom stays small
// because a replayed call allocates about 25 times: one more allocation
// per call moves the replaying experiments by 1-4 %, which a 25 %
// headroom would let through.
const (
	allocHeadroom = 0.02
	allocSlack    = 64
)

// TestExperimentAllocCeilings runs the registry in order on one fresh
// seed-1 Env and holds each experiment's heap allocations to its count in
// testdata/allocs.txt. A registered experiment without a count fails, so
// no experiment goes ungated. After an intended change, rewrite the file
// with go test ./internal/experiments -run TestExperimentAllocCeilings -update.
//
// The counts belong to the Go release that wrote them (map growth and the
// race detector's instrumentation allocate differently), so under another
// release or -race the test skips rather than gate on a count it did not
// produce.
func TestExperimentAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every experiment")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var want map[string]uint64
	if !*update {
		var release string
		release, want = readAllocCounts(t)
		if release != goRelease() {
			t.Skipf("%s was written by %s; this is %s", allocsPath, release, goRelease())
		}
	}
	e := NewEnv(1, allocCalls)
	var file strings.Builder
	fmt.Fprintf(&file, "# Heap allocations per registered experiment: seed 1, %d calls, registry order.\nrelease %s\n", allocCalls, goRelease())
	var m0, m1 runtime.MemStats
	for _, exp := range Registry() {
		runtime.ReadMemStats(&m0)
		exp.Run(e)
		runtime.ReadMemStats(&m1)
		got := m1.Mallocs - m0.Mallocs
		fmt.Fprintf(&file, "%s %d\n", exp.Name, got)
		if *update {
			continue
		}
		base, ok := want[exp.Name]
		if !ok {
			t.Errorf("%s: no allocation count in %s (rerun with -update)", exp.Name, allocsPath)
			continue
		}
		delete(want, exp.Name)
		if limit := base + uint64(allocHeadroom*float64(base)) + allocSlack; got > limit {
			t.Errorf("%s: %d allocations, ceiling %d (count %d + %.0f%% + %d)", exp.Name, got, limit, base, 100*allocHeadroom, allocSlack)
		}
	}
	for name := range want {
		t.Errorf("%s: count in %s names no registered experiment", name, allocsPath)
	}
	if *update {
		if err := os.WriteFile(allocsPath, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readAllocCounts parses testdata/allocs.txt: the Go release that wrote
// it and one count per experiment.
func readAllocCounts(t *testing.T) (string, map[string]uint64) {
	t.Helper()
	b, err := os.ReadFile(allocsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var release string
	counts := map[string]uint64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		if key == "release" {
			release = val
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("%s: malformed line %q", allocsPath, line)
		}
		counts[key] = n
	}
	return release, counts
}

// goRelease is the running toolchain's major.minor release, e.g. go1.24.
func goRelease() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		return parts[0] + "." + parts[1]
	}
	return v
}

// BenchmarkExperiments times each registered experiment on its own fresh
// Env, built with the timer stopped, so a sub-benchmark pays for every
// strategy replay its experiment needs rather than finding some in the
// run cache an earlier experiment filled. -cpu sets the parallelism.
func BenchmarkExperiments(b *testing.B) {
	for _, exp := range Registry() {
		exp := exp
		b.Run(exp.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEnv(1, allocCalls)
				b.StartTimer()
				exp.Run(e)
			}
		})
	}
}
