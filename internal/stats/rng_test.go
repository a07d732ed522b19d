package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split("trace")
	b := root.Split("congestion")
	a2 := NewRNG(7).Split("trace")
	// Same label reproduces the same stream.
	for i := 0; i < 50; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
	// Different labels produce different streams.
	c := NewRNG(7).Split("trace")
	same := 0
	for i := 0; i < 64; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently labeled splits matched %d/64 draws", same)
	}
}

// Golden sequences pin the derivation math across runs and builds: the
// in-process comparisons above would pass even if Split's mixing changed,
// because both sides would change together. Experiments archive results
// keyed by seed, so the exact stream is part of the repo's contract.
func TestSplitGoldenSequence(t *testing.T) {
	want := []uint64{
		0x387fba83ed35208e, 0xc4f972f37b41de8a, 0xab2b2b5c1e4ba96a, 0x348a3d1dba439263,
		0xe45db757727e961e, 0xfc1ca33465d9d2c0, 0x80a7419f7d134ec8, 0x46a32d6c825c7d4d,
	}
	r := NewRNG(42).Split("trace")
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("NewRNG(42).Split(%q) draw %d = %#x, want %#x", "trace", i, got, w)
		}
	}
}

func TestSplitNGoldenSequence(t *testing.T) {
	want := []uint64{
		0xf140ac4a8b484d08, 0x85219d12d38a1447, 0xd1675dd67f63c983, 0xae709b189165a5f8,
	}
	r := NewRNG(42).SplitN("pair", 7)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("NewRNG(42).SplitN(%q, 7) draw %d = %#x, want %#x", "pair", i, got, w)
		}
	}
}

// Distinct labels yield streams that are independent, not merely unequal:
// draining one must not perturb the other.
func TestSplitLabelIsolation(t *testing.T) {
	a := NewRNG(7).Split("alpha")
	ref := make([]uint64, 50)
	for i := range ref {
		ref[i] = a.Uint64()
	}

	root := NewRNG(7)
	b := root.Split("beta")
	for i := 0; i < 1000; i++ {
		b.Uint64() // drain a sibling stream
	}
	a2 := root.Split("alpha")
	for i, w := range ref {
		if got := a2.Uint64(); got != w {
			t.Fatalf("draining sibling stream perturbed %q at draw %d", "alpha", i)
		}
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := NewRNG(9)
	seen := map[uint64]bool{}
	for n := uint64(0); n < 200; n++ {
		v := root.SplitN("pair", n).Uint64()
		if seen[v] {
			t.Fatalf("SplitN(%d) collided with an earlier stream", n)
		}
		seen[v] = true
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	a := NewRNG(5)
	b := NewRNG(5)
	_ = a.Split("child")
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split consumed parent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Normal(10, 3))
	}
	if math.Abs(w.Mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", w.Mean)
	}
	if math.Abs(w.StdDev()-3) > 0.05 {
		t.Errorf("normal stddev = %v, want ~3", w.StdDev())
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(13)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.LogNormal(math.Log(120), 0.8)
	}
	med := Quantile(xs, 0.5)
	if math.Abs(med-120) > 5 {
		t.Errorf("lognormal median = %v, want ~120", med)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(17)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Exponential(42))
	}
	if math.Abs(w.Mean-42) > 1 {
		t.Errorf("exponential mean = %v, want ~42", w.Mean)
	}
}

func TestParetoProperties(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto sample %v below minimum 2", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(37)
	z := NewZipf(r, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 should dominate rank 99 by roughly 100x for s=1.
	if counts[0] < 20*counts[99] {
		t.Errorf("Zipf not skewed enough: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// All mass within range.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Errorf("Zipf lost samples: %d != %d", total, n)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	r := NewRNG(41)
	z := NewZipf(r, 50, 0.8)
	sum := 0.0
	for k := 0; k < len(z.cdf); k++ {
		sum += z.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Zipf probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Error("Zipf.Prob out of range should be 0")
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	r := NewRNG(43)
	z := NewZipf(r, 20, 1.2)
	counts := make([]int, 20)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[z.Sample()]++
	}
	for k := 0; k < 5; k++ {
		want := z.Prob(k)
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v vs analytic %v", k, got, want)
		}
	}
}

// Property: Pareto samples are always >= xm for any valid parameters.
func TestParetoMinimumProperty(t *testing.T) {
	r := NewRNG(47)
	f := func(seed uint16) bool {
		xm := 0.1 + float64(seed%100)/10
		v := r.Pareto(xm, 1.1)
		return v >= xm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
