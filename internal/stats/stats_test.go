package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.N() != 8 || w.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", w.N(), w.Mean())
	}
	if math.Abs(w.StdDev()-2) > 1e-12 {
		t.Fatalf("stddev %v", w.StdDev())
	}
	if math.Abs(w.CoeffDeviationPct()-40) > 1e-9 {
		t.Fatalf("cod %v", w.CoeffDeviationPct())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max %v %v", w.Min(), w.Max())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + int(split)%50
		k := int(split) % n
		var all, a, b Welford
		for i := 0; i < n; i++ {
			v := r.NormFloat64()*3 + 10
			all.Add(v)
			if i < k {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordEmptyAndMergeEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("empty aggregate not zero")
	}
	if !math.IsNaN(w.CoeffDeviationPct()) {
		t.Fatalf("empty aggregate CoD = %v, want NaN (undefined)", w.CoeffDeviationPct())
	}
	var a Welford
	a.Add(5)
	a.Merge(Welford{})
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed state")
	}
	var b Welford
	b.Merge(a)
	if b.N() != 1 || b.Mean() != 5 {
		t.Fatal("merge into empty wrong")
	}
}

// TestWelfordCoDZeroMean: a zero mean with nonzero spread used to report a
// coefficient of deviation of 0 — indistinguishable from "no variation".
// The ratio is undefined there; it must come back NaN.
func TestWelfordCoDZeroMean(t *testing.T) {
	var w Welford
	w.Add(-3)
	w.Add(3)
	if w.Mean() != 0 || w.StdDev() == 0 {
		t.Fatalf("setup: mean=%v stddev=%v", w.Mean(), w.StdDev())
	}
	if !math.IsNaN(w.CoeffDeviationPct()) {
		t.Fatalf("CoD with zero mean and spread %v = %v, want NaN",
			w.StdDev(), w.CoeffDeviationPct())
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	// Population variance is 4 over n=8; sample variance is m2/(n-1) = 32/7.
	if got, want := w.SampleVariance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sample variance %v, want %v", got, want)
	}
	var short Welford
	if !math.IsNaN(short.SampleVariance()) {
		t.Fatal("sample variance of empty aggregate must be NaN")
	}
	short.Add(1)
	if !math.IsNaN(short.SampleVariance()) {
		t.Fatal("sample variance of single observation must be NaN")
	}
}

func TestWelfordCI95(t *testing.T) {
	// n=2: df=1, t=12.706. Observations 0 and 2: mean 1, s²=2, se=1.
	var w Welford
	w.Add(0)
	w.Add(2)
	if got := w.CI95(); math.Abs(got-12.706) > 1e-9 {
		t.Fatalf("n=2 CI95 half-width %v, want 12.706", got)
	}
	// Large n approaches the normal multiplier: 1000 alternating ±1 around
	// 10 has s ≈ 1.0005, so the half-width is close to 1.96/sqrt(1000).
	var big Welford
	for i := 0; i < 1000; i++ {
		big.Add(10 + float64(1-2*(i%2)))
	}
	se := math.Sqrt(big.SampleVariance() / 1000)
	if got, want := big.CI95(), 1.96*se; math.Abs(got-want) > 1e-12 {
		t.Fatalf("large-n CI95 %v, want %v", got, want)
	}
	// The interval must actually cover the mean of the generating process
	// here (symmetric observations around 10).
	if math.Abs(big.Mean()-10) > big.CI95() {
		t.Fatalf("CI [%v ± %v] misses 10", big.Mean(), big.CI95())
	}
	var short Welford
	short.Add(5)
	if !math.IsNaN(short.CI95()) {
		t.Fatal("CI95 with n<2 must be NaN")
	}
}

// TestWelfordStateRoundTrip: the exported snapshot must reconstruct an
// aggregate that behaves identically — same moments, same extrema, and
// identical results when merged (the Table 5 save/load requirement).
func TestWelfordStateRoundTrip(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i%17) * 1.5e-7)
	}
	got := WelfordFromState(w.State())
	if got != w {
		t.Fatalf("state round trip: got %+v want %+v", got, w)
	}
	var o Welford
	for i := 0; i < 37; i++ {
		o.Add(float64(i) * 2.5e-7)
	}
	live, restored := w, WelfordFromState(w.State())
	live.Merge(o)
	restored.Merge(WelfordFromState(o.State()))
	if live != restored {
		t.Fatalf("merge after round trip diverged: %+v vs %+v", restored, live)
	}
	var zero Welford
	if WelfordFromState(zero.State()) != zero {
		t.Fatal("zero-value state round trip")
	}
}
