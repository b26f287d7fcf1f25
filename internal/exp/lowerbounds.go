package exp

// Experiments E3 and E6: the lower bounds of Theorems 6 and 8.

import (
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lower"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "Centralized lower bound (Theorem 6)",
		Claim: "No schedule broadcasts in o(ln n/ln d + ln d) rounds: eccentricity forces the first term; even a greedy full-knowledge adversary stays within a constant of the bound; the p=1/2 counting core needs Θ(log n) sets.",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Distributed lower bound (Theorem 8)",
		Claim: "Any protocol deciding from (n,p,t) only — i.e. any transmit-probability sequence — needs Ω(ln n) rounds.",
		Run:   runE6,
	})
}

func runE3(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	var ns []int
	switch cfg.Scale {
	case Small:
		ns = []int{300, 600, 1200}
	case Medium:
		ns = []int{500, 1000, 2000, 4000}
	default:
		ns = []int{500, 1000, 2000, 4000, 8000}
	}
	t := table.New("E3a: greedy full-knowledge adversary vs the Theorem 6 bound (d = 2 ln n)",
		"n", "d", "ecc", "greedy rounds", "bound", "greedy/bound")
	for i, n := range ns {
		d := 2 * math.Log(float64(n))
		parent := xrand.New(cfg.Seed + uint64(i)*401)
		eccs := make([]float64, 0, trials)
		rounds := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			rng := parent.Derive(uint64(trial) + 1)
			g := gen.MustConnectedGnp(n, d, rng)
			_, res, err := lower.GreedyAdaptiveSchedule(g, 0, 100000)
			if err != nil {
				panic(err)
			}
			eccs = append(eccs, float64(lower.Eccentricity(g, 0)))
			rounds = append(rounds, float64(res.Rounds))
		}
		bound := core.CentralizedBound(n, d)
		mean, _, _ := summarizeRounds(rounds)
		eccMean, _, _ := summarizeRounds(eccs)
		t.AddRow(n, d, eccMean, mean, bound, mean/bound)
	}
	t.AddNote("greedy/bound staying bounded away from 0 across n supports the Ω(ln n/ln d + ln d) shape")

	// E3b: the p = 1/2 counting core — sequences of 1- and 2-element sets
	// leave a survivor until the sequence length reaches Θ(log n).
	t2 := table.New("E3b: survivor threshold of the p=1/2 counting core",
		"n", "threshold k*", "log2 n", "k*/log2 n")
	probeTrials := map[Scale]int{Small: 150, Medium: 400, Full: 1000}[cfg.Scale]
	rng := xrand.New(cfg.Seed + 999)
	for _, exp2 := range thresholds(cfg.Scale) {
		n := 1 << exp2
		k := lower.SurvivorThreshold(n, probeTrials, 0.5, rng)
		t2.AddRow(n, k, exp2, float64(k)/float64(exp2))
	}
	t2.AddNote("k*/log2 n roughly constant ⇒ Ω(log n) rounds needed even with the relaxed charging of the Theorem 6 proof")
	return []*table.Table{t, t2}
}

func thresholds(scale Scale) []int {
	switch scale {
	case Small:
		return []int{8, 12, 16}
	case Medium:
		return []int{8, 12, 16, 20}
	default:
		return []int{8, 12, 16, 20, 24}
	}
}

func runE6(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	var ns []int
	switch cfg.Scale {
	case Small:
		ns = []int{500, 1000}
	case Medium:
		ns = []int{1000, 4000, 16000}
	default:
		ns = []int{1000, 4000, 16000, 64000}
	}
	t := table.New("E6: best oblivious transmit-probability sequence vs ln n (d = 2 ln n)",
		"n", "d", "best mean rounds", "ln n", "best/ln n")
	for i, n := range ns {
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + uint64(i)*503)
		g := gen.MustConnectedGnp(n, d, rng)
		best, _ := lower.OptimizeSequence(g, 0, d, core.MaxRoundsFor(n), trials, rng)
		t.AddRow(n, d, best, core.DistributedBound(n), best/core.DistributedBound(n))
	}
	t.AddNote("the optimizer searches constants, decay cycles, ramps and flood-then-select patterns; best/ln n bounded below supports Ω(ln n)")
	return []*table.Table{t}
}
