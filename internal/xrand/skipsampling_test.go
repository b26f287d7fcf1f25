package xrand_test

// Distributional witnesses for the lane engine's skip-sampling stream
// (see internal/lanes): BinomialExp counts exactly the geometric skips
// the lane transmitter sampler walks, so BinomialExp ≡ Binomial in
// distribution is the statistical guarantee that lane trials sample the
// same per-round transmitter-count law as scalar trials.

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// chiSquareTwoSample compares two equal-size histograms; returns the
// statistic and degrees of freedom (pooling empty bins).
func chiSquareTwoSample(a, b []int) (float64, int) {
	chi2, df := 0.0, 0
	for i := range a {
		s := a[i] + b[i]
		if s == 0 {
			continue
		}
		d := float64(a[i] - b[i])
		chi2 += d * d / float64(s)
		df++
	}
	return chi2, df - 1
}

func TestBinomialExpMatchesBinomialChiSquare(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{40, 0.04},  // the lane engine's selective-phase regime
		{200, 0.1},  // moderate
		{64, 0.75},  // exercises the p > 0.5 mirror
		{1000, 0.5}, // symmetric
	}
	for _, tc := range cases {
		const draws = 1 << 16
		ra := xrand.New(411)
		rb := xrand.New(97)
		bins := tc.n + 1
		a := make([]int, bins)
		b := make([]int, bins)
		for i := 0; i < draws; i++ {
			a[ra.Binomial(tc.n, tc.p)]++
			b[rb.BinomialExp(tc.n, tc.p)]++
		}
		chi2, df := chiSquareTwoSample(a, b)
		// 5-sigma band around the chi-square mean df.
		if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
			t.Errorf("Binomial(%d, %g) vs BinomialExp: chi2=%.1f df=%d (limit %.1f)", tc.n, tc.p, chi2, df, limit)
		}
	}
}

func TestGeometricExpAgainstTheory(t *testing.T) {
	// GeometricExp(lam) = floor(Exp(lam)) is geometric with success
	// probability 1 - e^-lam: P(X = k) = (1 - q) q^k, q = e^-lam. This is
	// the per-lane skip law of the lane engine at q_round = 1 - e^-lam.
	const lam = 0.25
	q := math.Exp(-lam)
	const draws = 1 << 17
	const bins = 24 // tail pooled into the last bin
	counts := make([]int, bins)
	r := xrand.New(20260808)
	for i := 0; i < draws; i++ {
		k := r.GeometricExp(lam)
		if k >= bins-1 {
			k = bins - 1
		}
		counts[k]++
	}
	chi2, df := 0.0, bins-1
	for k := 0; k < bins; k++ {
		pk := (1 - q) * math.Pow(q, float64(k))
		if k == bins-1 {
			pk = math.Pow(q, float64(k)) // tail mass
		}
		exp := pk * draws
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
	}
	if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
		t.Errorf("GeometricExp(%g): chi2=%.1f df=%d (limit %.1f)", lam, chi2, df, limit)
	}
}

// TestReseedMatchesNew: Reseed(s) must put the generator in exactly the
// state New(s) starts in — the lane engine reseeds one generator per
// lane per trial instead of allocating fresh ones.
func TestReseedMatchesNew(t *testing.T) {
	r := xrand.New(1)
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, ^uint64(0)} {
		r.Reseed(seed)
		fresh := xrand.New(seed)
		for i := 0; i < 32; i++ {
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d, draw %d: Reseed stream %x != New stream %x", seed, i, a, b)
			}
		}
	}
}

// tinyPs are success probabilities whose real-valued geometric skips
// exceed every int (or are +Inf); unbounded int conversion wrapped them
// to math.MinInt64.
var tinyPs = []float64{1e-20, 1e-30, 1e-300, 5e-324}

// TestGeometricSkipsNeverNegative: every skip sampler saturates at
// MaxSkip instead of wrapping negative, and a saturated skip cannot
// overflow the skip loop's i += 1 + skip.
func TestGeometricSkipsNeverNegative(t *testing.T) {
	r := xrand.New(3)
	for _, p := range tinyPs {
		lam := -math.Log1p(-p)
		for i := 0; i < 1000; i++ {
			for name, k := range map[string]int{
				"Geometric":    r.Geometric(p),
				"GeometricLog": r.GeometricLog(math.Log1p(-p)),
				"GeometricExp": r.GeometricExp(lam),
			} {
				if k < 0 || k > xrand.MaxSkip {
					t.Fatalf("%s(p=%g) = %d outside [0, MaxSkip]", name, p, k)
				}
			}
		}
	}
	// log1mp = -0 (p underflowed to 0) and a zero uniform give 0/0.
	for i := 0; i < 1000; i++ {
		if k := r.GeometricLog(math.Copysign(0, -1)); k != xrand.MaxSkip {
			t.Fatalf("GeometricLog(-0) = %d, want MaxSkip", k)
		}
	}
	if i := xrand.MaxSkip; i+1+xrand.MaxSkip < i {
		t.Fatal("MaxSkip + 1 + MaxSkip overflows")
	}
}

// TestGeometricInRangeUnchanged: saturation must not move any in-range
// sample — recorded G(n,p) graphs and lane streams depend on it.
func TestGeometricInRangeUnchanged(t *testing.T) {
	for _, p := range []float64{0.9, 0.5, 0.04, 1e-3, 1e-6, 1e-12} {
		log1mp, lam := math.Log1p(-p), -math.Log1p(-p)
		a, b := xrand.New(17), xrand.New(17)
		c, d := xrand.New(18), xrand.New(18)
		for i := 0; i < 4096; i++ {
			if got, want := a.GeometricLog(log1mp), int(math.Floor(math.Log1p(-b.Float64())/log1mp)); got != want {
				t.Fatalf("GeometricLog(p=%g) draw %d: %d, want %d", p, i, got, want)
			}
			if got, want := c.GeometricExp(lam), int(d.ExpZiggurat()/lam); got != want {
				t.Fatalf("GeometricExp(p=%g) draw %d: %d, want %d", p, i, got, want)
			}
		}
	}
}

// TestBinomialStaysInRange: Binomial and BinomialExp return a count in
// [0, n] for every p, including probabilities whose skips saturate and
// their p > 0.5 mirrors.
func TestBinomialStaysInRange(t *testing.T) {
	r := xrand.New(5)
	ps := append([]float64{0, 1, 0.5}, tinyPs...)
	for _, p := range tinyPs {
		ps = append(ps, 1-p)
	}
	for _, n := range []int{0, 1, 10, 1000} {
		for _, p := range ps {
			for i := 0; i < 200; i++ {
				if k := r.Binomial(n, p); k < 0 || k > n {
					t.Fatalf("Binomial(%d, %g) = %d", n, p, k)
				}
				if k := r.BinomialExp(n, p); k < 0 || k > n {
					t.Fatalf("BinomialExp(%d, %g) = %d", n, p, k)
				}
			}
		}
	}
}
