package exp

// Experiments E1, E2 and E4: the upper-bound scaling claims of Theorems 5
// and 7.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Centralized broadcast time vs n (Theorem 5)",
		Claim: "Centralized broadcasting on G(n,p) completes in O(ln n/ln d + ln d) rounds w.h.p.",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Centralized broadcast time vs d (Theorem 5, U-shape)",
		Claim: "At fixed n the bound ln n/ln d + ln d is minimised near d = exp(sqrt(ln n)); measured rounds should trace the same U-shape.",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Distributed broadcast time vs n (Theorem 7)",
		Claim: "The randomized distributed protocol completes in O(ln n) rounds w.h.p.",
		Run:   runE4,
	})
}

func runE1(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	t := table.New("E1: centralized rounds vs n  (d = 2 ln n, mean over trials)",
		"n", "d", "rounds", "p10", "p90", "bound", "rounds/bound")
	var ratios []float64
	for i, n := range nLadder(cfg.Scale) {
		d := 2 * math.Log(float64(n))
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*101, func(rng *xrand.Rand) float64 {
			g := gen.MustConnectedGnp(n, d, rng)
			return float64(centralizedRounds(g, d, rng.Uint64()))
		})
		mean, p10, p90 := summarizeRounds(samples)
		bound := core.CentralizedBound(n, d)
		ratio := mean / bound
		ratios = append(ratios, ratio)
		t.AddRow(n, d, mean, p10, p90, bound, ratio)
	}
	spread := stats.RatioSpread(ratios, ones(len(ratios)))
	t.AddNote("trials=%d seed=%d; ratio spread max/min = %.2f (Θ-claim holds if bounded, ~<3)",
		trials, cfg.Seed, spread)
	return []*table.Table{t}
}

func runE2(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 2000, Medium: 16000, Full: 32000}[cfg.Scale]
	t := table.New(fmt.Sprintf("E2: centralized rounds vs d  (n = %d)", n),
		"d", "rounds", "bound", "rounds/bound")
	ds := degreeLadder(n, cfg.Scale)
	var meas, bounds []float64
	for i, d := range ds {
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*211, func(rng *xrand.Rand) float64 {
			g := gen.MustConnectedGnp(n, d, rng)
			return float64(centralizedRounds(g, d, rng.Uint64()))
		})
		mean, _, _ := summarizeRounds(samples)
		bound := core.CentralizedBound(n, d)
		meas = append(meas, mean)
		bounds = append(bounds, bound)
		t.AddRow(d, mean, bound, mean/bound)
	}
	t.AddNote("optimal degree per theory: d* = exp(sqrt(ln n)) = %.1f", core.OptimalDegree(n))
	t.AddNote("ratio spread across the sweep: %.2f", stats.RatioSpread(meas, bounds))
	return []*table.Table{t}
}

func runE4(cfg Config) []*table.Table {
	trials := cfg.trials(5)
	var out []*table.Table
	for _, regime := range []struct {
		name string
		d    func(n int) float64
	}{
		{"d = 2 ln n", func(n int) float64 { return 2 * math.Log(float64(n)) }},
		{"d = n^0.4", func(n int) float64 { return math.Pow(float64(n), 0.4) }},
	} {
		rt := table.New(fmt.Sprintf("E4 (%s)", regime.name),
			"n", "d", "rounds", "p10", "p90", "ln n", "rounds/ln n")
		var ns, rounds []float64
		for i, n := range nLadder(cfg.Scale) {
			d := regime.d(n)
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*307, func(rng *xrand.Rand) float64 {
				g := gen.MustConnectedGnp(n, d, rng)
				return distributedRounds(g, d, rng)
			})
			mean, p10, p90 := summarizeRounds(samples)
			lnN := core.DistributedBound(n)
			ns = append(ns, float64(n))
			rounds = append(rounds, mean)
			rt.AddRow(n, d, mean, p10, p90, lnN, mean/lnN)
		}
		fit := stats.FitLogarithm(ns, rounds)
		rt.AddNote("fit rounds = a·ln n + b: a=%.2f b=%.2f R²=%.3f (Θ(ln n) claim: good fit, stable a)",
			fit.Slope, fit.Intercept, fit.R2)
		out = append(out, rt)
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
