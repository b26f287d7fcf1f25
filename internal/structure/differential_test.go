package structure

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// randomSets draws a graph on n vertices with edge probability p, and
// candidate and target lists of the given lengths with ids drawn with
// replacement (so duplicates occur and X and Y may overlap).
func randomSets(rng *xrand.Rand, n int, p float64, nx, ny int) (*graph.Graph, []int32, []int32) {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	draw := func(k int) []int32 {
		if k == 0 {
			return nil
		}
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(rng.Intn(n))
		}
		return out
	}
	return b.Build(), draw(nx), draw(ny)
}

// checkAgainstReference runs every Section 2 construction (the greedy
// cover also as the kernel on the shared scratch sc) and requires every
// result to equal the map-based reference exactly.
func checkAgainstReference(t *testing.T, sc *Scratch, g *graph.Graph, x, y []int32) {
	t.Helper()
	want := refGreedyIndependentCover(g, x, y)
	if got := GreedyIndependentCover(g, x, y); !reflect.DeepEqual(got, want) {
		t.Fatalf("GreedyIndependentCover(x=%v, y=%v) = %+v, reference %+v", x, y, got, want)
	}
	tx := sc.GreedyIndependentCover(g, x, y, nil)
	if !reflect.DeepEqual(tx, want.Transmitters) && !(len(tx) == 0 && len(want.Transmitters) == 0) {
		t.Fatalf("scratch kernel transmitters %v, reference %v", tx, want.Transmitters)
	}
	if len(want.Collided) != 0 {
		t.Fatalf("reference greedy cover collided on %v", want.Collided)
	}
	if got, want := EvaluateCover(g, x, y), refEvaluateCover(g, x, y); !reflect.DeepEqual(got, want) {
		t.Fatalf("EvaluateCover(x=%v, y=%v) = %+v, reference %+v", x, y, got, want)
	}
	if got, want := GreedyIndependentMatching(g, x, y), refGreedyIndependentMatching(g, x, y); !reflect.DeepEqual(got, want) {
		t.Fatalf("GreedyIndependentMatching(x=%v, y=%v) = %v, reference %v", x, y, got.Pairs, want.Pairs)
	}
	cover := MinimalCover(g, x, y)
	if want := refMinimalCover(g, x, y); !reflect.DeepEqual(cover, want) {
		t.Fatalf("MinimalCover(x=%v, y=%v) = %v, reference %v", x, y, cover, want)
	}
	if got, want := MatchingFromMinimalCover(g, cover, y), refMatchingFromMinimalCover(g, cover, y); !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchingFromMinimalCover(cover=%v, y=%v) = %v, reference %v", cover, y, got.Pairs, want.Pairs)
	}
	// Arbitrary x (not a minimal cover) too: the construction is total.
	if got, want := MatchingFromMinimalCover(g, x, y), refMatchingFromMinimalCover(g, x, y); !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchingFromMinimalCover(x=%v, y=%v) = %v, reference %v", x, y, got.Pairs, want.Pairs)
	}
}

func TestConstructionsMatchReference(t *testing.T) {
	rng := xrand.New(2005)
	// One kernel scratch shared by every case, across graph sizes, so
	// stale stamps from earlier calls (and on-demand growth) are
	// exercised as well as fresh state.
	sc := NewScratch(4)
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(40)
		p := []float64{0.05, 0.15, 0.4, 0.9}[rng.Intn(4)]
		g, x, y := randomSets(rng, n, p, rng.Intn(2*n+1), rng.Intn(2*n+1))
		checkAgainstReference(t, sc, g, x, y)
	}
}

func TestConstructionsMatchReferenceOnGnpHalves(t *testing.T) {
	// Production-shaped inputs: disjoint halves of a sparse G(n,p), small
	// target sets as in the schedule builder's tail.
	sc := NewScratch(0)
	for seed := uint64(1); seed <= 6; seed++ {
		g, x, y := bipartiteHalves(600, 0.03, seed)
		for _, k := range []int{0, 1, 5, 40, 64} {
			checkAgainstReference(t, sc, g, x, y[:k])
		}
	}
}

func TestScratchStampWraparound(t *testing.T) {
	rng := xrand.New(9)
	g, x, y := randomSets(rng, 30, 0.2, 40, 20)
	sc := NewScratch(g.N())
	// Park stale marks at the top of the stamp range, then force the
	// epoch to overflow mid-sequence: the constructions must clear and
	// renumber rather than mistake old marks for fresh ones.
	for v := range sc.mark {
		sc.mark[v] = math.MaxInt32 - int32(v%3)
	}
	for i := 0; i < 4; i++ {
		sc.epoch = math.MaxInt32 - int32(i)
		checkAgainstReference(t, sc, g, x, y)
		// The kernel reserves two stamps, so the top two epochs wrap.
		if wrapped := sc.epoch == 2; wrapped != (i < 2) {
			t.Fatalf("epoch %d after a call from MaxInt32-%d: wraparound %v, want %v", sc.epoch, i, wrapped, i < 2)
		}
	}
}

func TestGreedyIndependentCoverKernelAppends(t *testing.T) {
	g := graph.FromEdges(6, [][2]int32{{0, 3}, {0, 4}, {1, 4}, {2, 5}})
	sc := NewScratch(g.N())
	dst := []int32{99}
	got := sc.GreedyIndependentCover(g, []int32{0, 1, 2}, []int32{3, 4, 5}, dst)
	// 0 covers {3,4} (degree 2) first; 1 would collide on 4; 2 covers 5.
	if want := []int32{99, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel output %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		got = sc.GreedyIndependentCover(g, []int32{0, 1, 2}, []int32{3, 4, 5}, got[:0])
	}); allocs != 0 {
		t.Fatalf("kernel allocates %.0f times per call in steady state, want 0", allocs)
	}
}

// FuzzGreedyIndependentCover decodes a graph and candidate/target lists
// from bytes and requires the greedy cover to equal the map-based
// reference exactly and to leave no target collided.
func FuzzGreedyIndependentCover(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4}, []byte{0, 2}, []byte{1, 3, 4})
	f.Add([]byte{6, 0, 3, 0, 4, 1, 4, 2, 5}, []byte{0, 1, 2, 0}, []byte{3, 4, 5, 4})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 4, 5, 6, 7}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, graphBytes, xBytes, yBytes []byte) {
		if len(graphBytes) == 0 {
			return
		}
		n := 1 + int(graphBytes[0])%48
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(graphBytes); i += 2 {
			b.AddEdge(int32(int(graphBytes[i])%n), int32(int(graphBytes[i+1])%n))
		}
		g := b.Build()
		ids := func(bs []byte) []int32 {
			var out []int32
			for _, c := range bs {
				out = append(out, int32(int(c)%n))
			}
			return out
		}
		x, y := ids(xBytes), ids(yBytes)
		got := GreedyIndependentCover(g, x, y)
		if want := refGreedyIndependentCover(g, x, y); !reflect.DeepEqual(got, want) {
			t.Fatalf("GreedyIndependentCover(x=%v, y=%v) = %+v, reference %+v", x, y, got, want)
		}
		if len(got.Collided) != 0 {
			t.Fatalf("greedy cover collided on %v", got.Collided)
		}
	})
}
