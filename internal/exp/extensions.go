package exp

// Experiments E13 and E14: extensions beyond the paper's statements —
// gossiping (the open problem its conclusions point to) and exact optima
// certifying the E3 adversary.

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/gossip"
	"repro/internal/lower"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Extension: gossiping in radio random graphs (§4 open problems)",
		Claim: "A Theorem-7-style phased protocol gossips (all-to-all) far faster than collision-free round-robin, and the gap widens with n.",
		Run:   runE13,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Extension: exact optimal schedules on tiny graphs",
		Claim: "Exhaustive state-space search gives the true OPT for n <= 16; the E3 greedy adversary matches it within +1 round, grounding the lower-bound evidence.",
		Run:   runE14,
	})
}

func runE13(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	var ns []int
	switch cfg.Scale {
	case Small:
		ns = []int{200, 400}
	case Medium:
		ns = []int{500, 1000, 2000, 4000}
	default:
		ns = []int{500, 1000, 2000, 4000, 8000}
	}
	t := table.New("E13: gossiping — phased (Thm 7 style) vs uniform 1/d vs round-robin (median rounds)",
		"n", "d", "phased", "uniform 1/d", "round robin", "phased/ln² n")
	for i, n := range ns {
		d := 2 * math.Log(float64(n))
		budget := 50*n + 100000
		mk := func(p radio.Protocol, off uint64) float64 {
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*1009+off, func(rng *xrand.Rand) float64 {
				g := gen.MustConnectedGnp(n, d, rng)
				return float64(gossip.Time(g, p, budget, rng))
			})
			return stats.Median(samples)
		}
		phased := mk(gossip.NewPhased(n, d), 0)
		uniform := mk(&protocols.Aloha{P: 1 / d}, 1)
		rr := mk(&protocols.RoundRobin{N: n}, 2)
		ln2 := math.Log(float64(n)) * math.Log(float64(n))
		t.AddRow(n, d, phased, uniform, rr, phased/ln2)
	}
	t.AddNote("rumor sets merge on every clean reception, so completion stays polylog-ish; round robin pays Θ(n)")
	return []*table.Table{t}
}

func runE14(cfg Config) []*table.Table {
	trials := cfg.trials(8)
	var sizes []int
	switch cfg.Scale {
	case Small:
		sizes = []int{8, 10}
	case Medium:
		sizes = []int{8, 10, 12, 14}
	default:
		sizes = []int{8, 10, 12, 14, 16}
	}
	t := table.New("E14: exact OPT vs greedy adversary vs eccentricity (tiny G(n, p=0.4))",
		"n", "instances", "mean OPT", "mean greedy", "greedy-OPT gaps (max)", "mean ecc")
	for _, n := range sizes {
		rng := xrand.New(cfg.Seed + uint64(n)*31)
		var opts, greedys, eccs []float64
		maxGap := 0
		got := 0
		for trial := 0; trial < 10*trials && got < trials; trial++ {
			g, _, ok := gen.ConnectedGnp(n, 0.4, rng, 10)
			if !ok {
				continue
			}
			got++
			opt, err := lower.OptimalBroadcastTime(g, 0)
			if err != nil {
				panic(err)
			}
			_, res, err := lower.GreedyAdaptiveSchedule(g, 0, 1000)
			if err != nil {
				panic(err)
			}
			if gap := res.Rounds - opt; gap > maxGap {
				maxGap = gap
			}
			opts = append(opts, float64(opt))
			greedys = append(greedys, float64(res.Rounds))
			eccs = append(eccs, float64(lower.Eccentricity(g, 0)))
		}
		t.AddRow(n, got, stats.Mean(opts), stats.Mean(greedys),
			fmt.Sprintf("%d", maxGap), stats.Mean(eccs))
	}
	t.AddNote("OPT from exhaustive BFS over 2^n information states; greedy never beats OPT and stays within a small additive gap")
	return []*table.Table{t}
}
