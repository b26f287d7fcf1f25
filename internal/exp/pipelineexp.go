package exp

// Experiment E20: k-broadcast throughput (multi-message pipelining).

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Extension: k-broadcast throughput (one message per transmission)",
		Claim: "With availability-aware selection (rarest-first) the completion time grows linearly, T(k) ≈ k·T(1); blind per-sender selection pays a further multiplicative penalty. Radio pipelining is throughput-limited by receptions, not latency.",
		Run:   runE20,
	})
}

func runE20(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 500, Medium: 4000, Full: 16000}[cfg.Scale]
	d := 2 * math.Log(float64(n))
	rng := xrand.New(cfg.Seed)
	g := gen.MustConnectedGnp(n, d, rng)
	budget := 4000 * 64 // generous: worst row is blind selection at k=32

	t := table.New(fmt.Sprintf("E20: k-broadcast on G(n=%d, d=2 ln n) — median rounds", n),
		"k", "rarest-first", "random", "round-robin", "rarest/k·T(1)")
	var t1 float64
	for i, k := range []int{1, 2, 4, 8, 16, 32} {
		k := k
		medFor := func(sel pipeline.Selection, off uint64) float64 {
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*1801+off, func(r *xrand.Rand) float64 {
				return float64(pipeline.Time(g, 0, k, pipeline.NewPhased(d), sel, budget, r))
			})
			return stats.Median(samples)
		}
		rare := medFor(pipeline.RarestFirst, 0)
		random := medFor(pipeline.RandomMsg, 1)
		rr := medFor(pipeline.RoundRobinMsg, 2)
		if i == 0 {
			t1 = rare
		}
		t.AddRow(k, rare, random, rr, rare/(float64(k)*t1))
	}
	t.AddNote("T(1)=%.0f; rarest-first column ≈ k·T(1) is the linear throughput law; blind policies fall behind as k grows", t1)
	return []*table.Table{t}
}
