package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// goldenScheduleFingerprint pins the exact output of BuildCentralizedSchedule:
// an FNV-64a hash over every transmitter set and the CentralizedTrace of
// each build in scheduleGoldenGrid. Any change to the builder's output —
// the sets, their order, the order within a set, or the per-phase round
// accounting — moves it. The value was recorded before the map-free cover
// kernel replaced the map-based greedy, so a match proves the rewrite is
// bit-identical on the grid.
const goldenScheduleFingerprint = 0x24957ddf394b8010

// scheduleGoldenConfigs are the default configuration and the E12
// ablations: A1 (overlapping selective sets), A2 (no cover finish) and A3
// (selectivity 1/√d and 1/d²).
func scheduleGoldenConfigs(d float64, seed uint64) []CentralizedConfig {
	def := DefaultCentralizedConfig(seed)
	a1 := def
	a1.DisjointSelectiveSets = false
	a2 := def
	a2.CoverFinish = false
	a3sqrt := def
	a3sqrt.Selectivity = 1 / math.Sqrt(d)
	a3sq := def
	a3sq.Selectivity = 1 / (d * d)
	return []CentralizedConfig{def, a1, a2, a3sqrt, a3sq}
}

// scheduleGoldenGraph is one input graph of the fingerprint grid.
type scheduleGoldenGraph struct {
	name string
	d    float64
	g    *graph.Graph
}

// scheduleGoldenGrid draws the fingerprint's input graphs: connected
// G(n,p) over a (n, d, seed) grid spanning sparse to dense, plus random
// 3- and 5-regular graphs, whose deep BFS trees exercise the backward
// cover sweep (phase 5).
func scheduleGoldenGrid(t *testing.T) []scheduleGoldenGraph {
	t.Helper()
	var out []scheduleGoldenGraph
	for _, c := range []struct {
		n int
		d float64
	}{
		{200, 8}, {200, 40}, {1000, 10}, {1000, 25}, {4000, 12}, {4000, 20}, {4000, 40}, {12000, 19},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			g := mustConnected(t, c.n, c.d, seed)
			out = append(out, scheduleGoldenGraph{fmt.Sprintf("gnp n=%d d=%v seed=%d", c.n, c.d, seed), c.d, g})
		}
	}
	for _, deg := range []int{3, 5} {
		for seed := uint64(1); seed <= 2; seed++ {
			g := gen.RandomRegular(2000, deg, xrand.New(seed))
			if !graph.IsConnected(g) {
				t.Fatalf("random %d-regular graph (seed %d) is disconnected", deg, seed)
			}
			out = append(out, scheduleGoldenGraph{fmt.Sprintf("regular n=2000 d=%d seed=%d", deg, seed), float64(deg), g})
		}
	}
	return out
}

func TestCentralizedScheduleGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden schedule grid skipped in -short mode")
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	builds := 0
	for _, in := range scheduleGoldenGrid(t) {
		for _, cfg := range scheduleGoldenConfigs(in.d, uint64(builds)+7) {
			sched, tr, err := BuildCentralizedSchedule(in.g, 0, in.d, cfg)
			builds++
			if err != nil {
				// A failed build is output too (A3 at 1/d² can strand the
				// cover finish on the sparsest graphs): pin its message.
				put(-1)
				h.Write([]byte(err.Error()))
				continue
			}
			put(int64(len(sched.Sets)))
			for _, set := range sched.Sets {
				put(int64(len(set)))
				for _, v := range set {
					put(int64(v))
				}
			}
			for _, f := range []int{tr.TreeRounds, tr.KickoffRounds, tr.SelectiveRounds,
				tr.CoverRounds, tr.BackwardRounds, tr.DStar, tr.Layers} {
				put(int64(f))
			}
		}
	}
	if got := h.Sum64(); got != goldenScheduleFingerprint {
		t.Fatalf("schedule fingerprint over %d builds = %#x, want %#x: BuildCentralizedSchedule output changed",
			builds, got, uint64(goldenScheduleFingerprint))
	}
}
