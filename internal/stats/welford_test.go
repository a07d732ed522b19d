package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N != 8 {
		t.Fatalf("N = %d", w.N)
	}
	if !almostEq(w.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean)
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.SEM() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator should report zero spread")
	}
	w.Add(3.5)
	if w.Mean != 3.5 || w.Variance() != 0 || w.SEM() != 0 {
		t.Error("single-sample accumulator should have zero spread")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	r := NewRNG(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Normal(5, 2)
	}
	var all Welford
	for _, x := range xs {
		all.Add(x)
	}
	var a, b Welford
	for i, x := range xs {
		if i < 371 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N != all.N {
		t.Fatalf("merged N = %d, want %d", a.N, all.N)
	}
	if !almostEq(a.Mean, all.Mean, 1e-9) {
		t.Errorf("merged Mean = %v, want %v", a.Mean, all.Mean)
	}
	if !almostEq(a.Variance(), all.Variance(), 1e-6) {
		t.Errorf("merged Variance = %v, want %v", a.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Error("merging empty changed the accumulator")
	}
	var b Welford
	b.Merge(a)
	if b != a {
		t.Error("merging into empty should copy")
	}
}

func TestWelfordSEMShrinks(t *testing.T) {
	r := NewRNG(2)
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(r.Normal(0, 1))
	}
	sem100 := w.SEM()
	for i := 0; i < 9900; i++ {
		w.Add(r.Normal(0, 1))
	}
	sem10000 := w.SEM()
	if sem10000 >= sem100 {
		t.Errorf("SEM should shrink with more data: %v -> %v", sem100, sem10000)
	}
	// SEM scales ~1/sqrt(n): expect roughly 10x reduction.
	if sem100/sem10000 < 5 {
		t.Errorf("SEM ratio = %v, want ~10", sem100/sem10000)
	}
}

func TestCI95ContainsTrueMeanUsually(t *testing.T) {
	root := NewRNG(3)
	contained := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		r := root.SplitN("trial", uint64(trial))
		var w Welford
		for i := 0; i < 50; i++ {
			w.Add(r.Normal(7, 2))
		}
		// The 95% confidence interval on the mean: Mean ± 1.96·SEM.
		if lo, hi := w.Mean-1.96*w.SEM(), w.Mean+1.96*w.SEM(); lo <= 7 && 7 <= hi {
			contained++
		}
	}
	frac := float64(contained) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("95%% CI contained true mean %v of the time", frac)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Error("length mismatch should return 0")
	}
	if Pearson([]float64{1}, []float64{1}) != 0 {
		t.Error("n<2 should return 0")
	}
	if Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Error("zero variance should return 0")
	}
}

func TestPearsonNoise(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 5000)
	ys := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
		ys[i] = r.Normal(0, 1)
	}
	if c := Pearson(xs, ys); math.Abs(c) > 0.05 {
		t.Errorf("independent noise correlation = %v", c)
	}
}

// Property: merging is commutative in the resulting statistics.
func TestWelfordMergeCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a1, b1, a2, b2 Welford
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		a1.Merge(b1) // a then b
		b2.Merge(a2) // b then a
		return a1.N == b2.N &&
			almostEq(a1.Mean, b2.Mean, 1e-6*(1+math.Abs(a1.Mean))) &&
			almostEq(a1.Variance(), b2.Variance(), 1e-4*(1+a1.Variance()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
