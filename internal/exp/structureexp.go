package exp

// Experiments E7 and E8: the structural lemmas (Lemma 3, Lemma 4,
// Proposition 2).

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/structure"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "BFS layer structure of G(n,p) (Lemma 3)",
		Claim: "Layers grow like d^i; intra-layer edges and multi-parent vertices are rare (O(|T_i|/d²) share >1 joint neighbour); only O(1) layers are big.",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Independent covers and matchings (Lemma 4, Proposition 2)",
		Claim: "A random 1/d-fraction of a Θ(n) set X independently covers Ω(|Y|) of Y; with |X|/|Y| = Ω(d²) a full independent matching exists; every minimal cover yields an equal-size independent matching.",
		Run:   runE8,
	})
}

func runE7(cfg Config) []*table.Table {
	n := map[Scale]int{Small: 2000, Medium: 16000, Full: 64000}[cfg.Scale]
	var out []*table.Table
	for _, d := range []float64{1.5 * math.Log(float64(n)), 4 * math.Log(float64(n))} {
		rng := xrand.New(cfg.Seed + uint64(d))
		g := gen.MustConnectedGnp(n, d, rng)
		prof := structure.AnalyzeLayers(g, 0)
		t := table.New(fmt.Sprintf("E7: layer profile, n=%d, d=%.1f", n, d),
			"i", "|T_i|", "d^i", "intra-edges", "multi-parent", "share>1 next", "norm·d²/|T_i|")
		for _, st := range prof.Layers {
			pred := math.Pow(d, float64(st.Depth))
			if pred > float64(n) {
				pred = float64(n)
			}
			norm := math.NaN()
			if st.Size > 0 {
				norm = float64(st.ShareTwoNext) * d * d / float64(st.Size)
			}
			t.AddRow(st.Depth, st.Size, pred, st.IntraEdges, st.MultiParent, st.ShareTwoNext, norm)
		}
		t.AddNote("big layers (>= n/d³): %d (Lemma 3: O(1))", prof.BigLayerCount(n, d))
		t.AddNote("norm column bounded ⇒ share>1-joint-neighbour count is O(|T_i|/d²)")
		out = append(out, t)
	}

	// E7b: the grouping property (second half of Lemma 3), in its regime
	// d⁴ << n where cross-group common neighbours must be rare.
	dG := math.Pow(0.1*float64(n), 0.25) // d⁴/n ≈ 0.1, the lemma's sparse regime
	gb := gen.Gnp(n, gen.PForDegree(n, dG), xrand.New(cfg.Seed+991))
	src := largestComponentSource(gb)
	t2 := table.New(fmt.Sprintf("E7b: Lemma 3 grouping by unique parent (n=%d, d=%.1f, d⁴/n=%.2f)",
		n, dG, math.Pow(dG, 4)/float64(n)),
		"depth", "groups", "singly-parented", "multi-parent", "max group", "cross-share rate")
	for _, depth := range []int{1, 2, 3} {
		gp := structure.GroupLayer(gb, src, depth)
		t2.AddRow(depth, len(gp.Groups), gp.SinglyParented(), gp.MultiParent,
			gp.MaxGroupSize, gp.ViolationRate())
	}
	t2.AddNote("group sizes are O(d)=O(pn) and distinct groups rarely share neighbours, as Lemma 3 states")
	out = append(out, t2)
	return out
}

// largestComponentSource returns a vertex inside the largest component.
func largestComponentSource(g *graph.Graph) int32 {
	return graph.LargestComponent(g)[0]
}

func runE8(cfg Config) []*table.Table {
	n := map[Scale]int{Small: 2000, Medium: 16000, Full: 32000}[cfg.Scale]
	trials := cfg.trials(5)

	// E8a: randomized independent cover fraction at q = 1/d, X = Y = n/2.
	t1 := table.New("E8a: randomized 1/d covers (X, Y a random halving of V)",
		"d", "covered fraction (mean)", "collided", "missed")
	for _, d := range []float64{12, 24, 48} {
		rngSeed := cfg.Seed + uint64(d)
		var fr, col, mis []float64
		for trial := 0; trial < trials; trial++ {
			rng := xrand.New(rngSeed + uint64(trial)*13)
			g := gen.Gnp(n, gen.PForDegree(n, d), rng)
			x, y := halves(n)
			c := structure.RandomizedCover(g, x, y, 1/d, rng)
			total := float64(len(y))
			fr = append(fr, c.CoveredFraction())
			col = append(col, float64(len(c.Collided))/total)
			mis = append(mis, float64(len(c.Missed))/total)
		}
		t1.AddRow(d, stats.Mean(fr), stats.Mean(col), stats.Mean(mis))
	}
	t1.AddNote("Lemma 4 predicts a constant covered fraction (~1/e² ≈ 0.37·(d/2·1/d·e^{-d/2·1/d})… exactly λe^{-λ} with λ=|X|/d·p·d/|X| — here λ=1/2 ⇒ 0.30)")

	// E8b: independent matching saturation as |X|/|Y| crosses d².
	t2 := table.New("E8b: greedy independent matching saturation",
		"d", "|Y|", "|X|/|Y|", "vs d²", "matched/|Y|", "independent")
	d := 8.0
	for _, ratio := range []float64{d * d / 16, d * d / 4, d * d, 4 * d * d} {
		rng := xrand.New(cfg.Seed + uint64(ratio*7))
		g := gen.Gnp(n, gen.PForDegree(n, d), rng)
		ySize := int(float64(n) / (1 + ratio))
		if ySize < 4 {
			ySize = 4
		}
		x, y := split(n, n-ySize)
		m := structure.GreedyIndependentMatching(g, x, y)
		frac := float64(m.Size()) / float64(len(y))
		t2.AddRow(d, len(y), ratio, ratio/(d*d), frac, m.IsIndependent(g))
	}
	t2.AddNote("matched fraction → 1 as |X|/|Y| reaches Ω(d²), per Lemma 4's second statement")

	// E8c: Proposition 2 — minimal cover size equals extracted matching
	// size, across several densities.
	t3 := table.New("E8c: Proposition 2 (minimal cover → independent matching)",
		"d", "|Y|", "|cover|", "|matching|", "equal")
	for _, d := range []float64{8, 16, 32} {
		rng := xrand.New(cfg.Seed + uint64(d)*3)
		g := gen.Gnp(n, gen.PForDegree(n, d), rng)
		ySize := 50
		x, y := split(n, n-ySize)
		cover := structure.MinimalCover(g, x, y)
		m := structure.MatchingFromMinimalCover(g, cover, y)
		t3.AddRow(d, len(y), len(cover), m.Size(), len(cover) == m.Size())
	}
	return []*table.Table{t1, t2, t3}
}

// halves splits [0,n) into two equal parts.
func halves(n int) (x, y []int32) { return split(n, n/2) }

// split returns x = [0, k) and y = [k, n).
func split(n, k int) (x, y []int32) {
	x = make([]int32, 0, k)
	y = make([]int32, 0, n-k)
	for i := 0; i < n; i++ {
		if i < k {
			x = append(x, int32(i))
		} else {
			y = append(y, int32(i))
		}
	}
	return x, y
}
