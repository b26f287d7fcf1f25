package main

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// trialSeeds is the repository's trial-seed convention (the one
// RunBatch and the campaign runner use): trial i of a batch with base
// seed s draws from xrand.New(s).DeriveSeed(i+1).
func trialSeeds(trials int, base uint64) []uint64 {
	parent := xrand.New(base)
	out := make([]uint64, trials)
	for i := range out {
		out[i] = parent.DeriveSeed(uint64(i) + 1)
	}
	return out
}

// connectedGraph draws a connected G(n, d/n) through the generator the
// campaign runner and the serving layer's graph cache call. When
// tracing, it also re-builds the sample's CSR from its edge list in a
// shadow span: the generator builds its CSR internally, so this is how
// the graph layer's build cost is measured from outside.
func connectedGraph(tr *tracer, n int, d float64, rng *xrand.Rand) (*graph.Graph, error) {
	var g *graph.Graph
	var tries int
	var ok bool
	tr.do("gen", func() { g, tries, ok = gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100) })
	if !ok {
		return nil, fmt.Errorf("no connected G(n=%d, d=%g) in 100 draws", n, d)
	}
	tr.add("gen.graphs", 1)
	tr.add("gen.tries", float64(tries))
	tr.add("graph.edges", float64(g.M()))
	if tr != nil {
		edges := make([][2]int32, 0, g.M())
		g.Edges(func(u, v int32) bool {
			edges = append(edges, [2]int32{u, v})
			return true
		})
		tr.shadow("graph", func() {
			b := graph.NewBuilder(n)
			b.Grow(len(edges))
			for _, e := range edges {
				b.AddEdgeUnchecked(e[0], e[1])
			}
			b.Build()
		})
	}
	return g, nil
}

// csrBytes is the graph's CSR footprint: 8 bytes per vertex offset and
// 4 per directed arc.
func csrBytes(g *graph.Graph) int { return 8*(g.N()+1) + 8*g.M() }

// fillExecMetrics reports the execution layer's counter deltas.
func fillExecMetrics(before, after exec.Stats, m metrics) {
	m.set("exec.lanes.trials", float64(after.Lanes.Trials-before.Lanes.Trials))
	m.set("exec.scalar.trials", float64(after.Scalar.Trials-before.Scalar.Trials))
	m.set("exec.schedule.runs", float64(after.Schedule.Runs-before.Schedule.Runs))
	fallbacks := after.Scalar.Fallbacks + after.Lanes.Fallbacks + after.Schedule.Fallbacks -
		before.Scalar.Fallbacks - before.Lanes.Fallbacks - before.Schedule.Fallbacks
	m.set("exec.scalar.fallbacks", float64(fallbacks))
	hits := float64(after.Scalar.PoolHits - before.Scalar.PoolHits)
	misses := float64(after.Scalar.PoolMisses - before.Scalar.PoolMisses)
	if hits+misses > 0 {
		m.set("exec.pool_hit_frac", hits/(hits+misses))
	}
}
