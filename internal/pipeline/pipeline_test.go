package pipeline

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func connected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	return g
}

// alohaLike transmits at rate q after an initial flood.
type alohaLike struct{ q float64 }

func (a alohaLike) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	if round <= 3 {
		return true
	}
	return rng.Bernoulli(a.q)
}

func TestPipelineSingleMessageMatchesBroadcastShape(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 1)
	rng := xrand.New(2)
	res := Run(g, 0, 1, core.NewDistributedProtocol(n, d), RoundRobinMsg, 100*core.MaxRoundsFor(n), rng)
	if !res.Completed {
		t.Fatalf("k=1 incomplete")
	}
	if float64(res.Rounds) > 30*math.Log(n) {
		t.Fatalf("k=1 took %d rounds", res.Rounds)
	}
	if res.FirstComplete[0] != res.Rounds {
		t.Fatalf("FirstComplete %d != rounds %d", res.FirstComplete[0], res.Rounds)
	}
}

func TestPipelineDeliversAllMessages(t *testing.T) {
	const n = 500
	const k = 8
	d := 2 * math.Log(n)
	g := connected(t, n, d, 3)
	for _, sel := range []Selection{RoundRobinMsg, RandomMsg, RarestFirst} {
		rng := xrand.New(4)
		res := Run(g, 0, k, alohaLike{1 / d}, sel, 200000, rng)
		if !res.Completed {
			t.Fatalf("%v: incomplete", sel)
		}
		if res.Delivered != int64(k)*int64(n-1) {
			t.Fatalf("%v: delivered %d, want %d", sel, res.Delivered, k*(n-1))
		}
		for m, r := range res.FirstComplete {
			if r < 1 || r > res.Rounds {
				t.Fatalf("%v: message %d completion round %d", sel, m, r)
			}
		}
	}
}

func TestPipelineThroughputLinearWithGoodSelection(t *testing.T) {
	// The measured law (experiment E20): with availability-aware
	// selection (rarest-first), T(k) ≈ k·T(1) — linear in k, sequential-
	// equivalent throughput without blowup — while blind selection
	// (round-robin over own messages) pays a multiplicative penalty on
	// top. Assert both facts.
	const n = 500
	d := 2 * math.Log(n)
	g := connected(t, n, d, 5)
	med := func(k int, sel Selection) int {
		var ts []int
		for i := uint64(0); i < 3; i++ {
			ts = append(ts, Time(g, 0, k, alohaLike{1 / d}, sel, 500000, xrand.New(10+i)))
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[1]
	}
	t1 := med(1, RarestFirst)
	t8rare := med(8, RarestFirst)
	t8rr := med(8, RoundRobinMsg)
	if t8rare > 3*8*t1 {
		t.Fatalf("rarest-first not ~linear: T(1)=%d T(8)=%d", t1, t8rare)
	}
	if t8rare >= t8rr {
		t.Fatalf("rarest-first (%d) not better than blind round-robin (%d) at k=8", t8rare, t8rr)
	}
}

func TestPipelineOnPath(t *testing.T) {
	// With permanent flooding, interior path nodes never listen after
	// being informed, so only the first message can propagate — the
	// half-duplex constraint in its purest form. A rate below 1 restores
	// listening and delivers all k messages.
	g := gen.Path(6)
	flood := alohaLike{1}
	res := Run(g, 0, 3, flood, RoundRobinMsg, 10000, xrand.New(6))
	if res.Completed {
		t.Fatal("always-transmit should deadlock multi-message relay on a path")
	}
	half := alohaLike{0.5}
	res = Run(g, 0, 3, half, RoundRobinMsg, 10000, xrand.New(6))
	if !res.Completed {
		t.Fatalf("rate-1/2 path pipeline incomplete: %+v", res)
	}
}

func TestPipelineSelectionStrings(t *testing.T) {
	if RoundRobinMsg.String() != "round-robin" || RandomMsg.String() != "random" ||
		RarestFirst.String() != "rarest-first" || Selection(9).String() != "unknown" {
		t.Fatal("selection names wrong")
	}
}

func TestPipelineSingletonGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	rng := xrand.New(7)
	res := Run(g, 0, 5, alohaLike{0.5}, RandomMsg, 10, rng)
	if !res.Completed || res.Rounds != 0 {
		t.Fatalf("singleton: %+v", res)
	}
}

func TestTimeSentinel(t *testing.T) {
	b := graph.NewBuilder(2)
	g := b.Build() // disconnected
	rng := xrand.New(8)
	if got := Time(g, 0, 2, alohaLike{0.5}, RandomMsg, 9, rng); got != 10 {
		t.Fatalf("sentinel = %d", got)
	}
}

func TestRarestFirstNoWorseThanRandom(t *testing.T) {
	const n = 400
	const k = 16
	d := 2 * math.Log(n)
	g := connected(t, n, d, 9)
	med := func(sel Selection) int {
		var ts []int
		for i := uint64(0); i < 3; i++ {
			ts = append(ts, Time(g, 0, k, alohaLike{1 / d}, sel, 500000, xrand.New(20+i)))
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[1]
	}
	rare := med(RarestFirst)
	random := med(RandomMsg)
	if rare > 2*random {
		t.Fatalf("genie-aided rarest-first (%d) much worse than random (%d)", rare, random)
	}
}

// TestPipelineSampledMatchesPerNodeDistribution: Phased's sampled
// transmit sets must complete k-broadcast in a similar number of rounds
// as the per-node path, under every Selection — a coarse distributional
// check (the exact per-seed values differ by design; the medians must
// not).
func TestPipelineSampledMatchesPerNodeDistribution(t *testing.T) {
	const n, k, trials, budget = 300, 4, 31, 200000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 13)
	p := NewPhased(d)
	forced := radio.ProtocolFunc(p.Transmit) // hides RoundProb: per-node path
	for _, sel := range []Selection{RoundRobinMsg, RandomMsg, RarestFirst} {
		sampled := make([]int, trials)
		perNode := make([]int, trials)
		for i := range sampled {
			sampled[i] = Time(g, 0, k, p, sel, budget, xrand.New(uint64(1000+i)))
			perNode[i] = Time(g, 0, k, forced, sel, budget, xrand.New(uint64(2000+i)))
		}
		slices.Sort(sampled)
		slices.Sort(perNode)
		ms, mp := sampled[trials/2], perNode[trials/2]
		if ms > budget || mp > budget {
			t.Fatalf("%v: incomplete runs: sampled median %d, per-node median %d", sel, ms, mp)
		}
		// Wide tolerance: the point is catching a wrong-by-construction
		// sampler (a stale eligible list, a wrong cohort), not power.
		if lo, hi := mp/2, mp*2; ms < lo || ms > hi {
			t.Fatalf("%v: sampled median %d outside [%d, %d] around per-node median %d", sel, ms, lo, hi, mp)
		}
	}
}

func BenchmarkPipeline(b *testing.B) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(b, n, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i))
		res := Run(g, 0, 8, alohaLike{1 / d}, RoundRobinMsg, 500000, rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// scripted transmits according to a precomputed per-round set (only
// informed nodes are asked).
type scripted struct{ rounds [][]int32 }

func (s scripted) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return round-1 < len(s.rounds) && slices.Contains(s.rounds[round-1], v)
}

// referencePipeline replays a scripted k-broadcast naively: every
// informed script member transmits one message picked by sel (drawing
// from rng in index order, as Run does), and each listener counts its
// transmitting neighbours with HasEdge. It also tallies the scripted
// rounds by reception-kernel branch (2·visits >= n is dense).
func referencePipeline(g *graph.Graph, src int32, k int, script [][]int32, sel Selection, rng *xrand.Rand, branches map[bool]int) Result {
	n := g.N()
	know := make([][]bool, n)
	for v := range know {
		know[v] = make([]bool, k)
	}
	holders := make([]int, k) // nodes knowing each message
	res := Result{FirstComplete: make([]int, k)}
	for m := range holders {
		know[src][m] = true
		holders[m] = 1
		res.FirstComplete[m] = -1
	}
	done := 0
	for round := 1; round <= len(script) && done < k; round++ {
		res.Rounds = round
		var tx []int32
		carry := map[int32]int{}
		visits := 0
		for v := int32(0); v < int32(n); v++ {
			var known []int
			for m, has := range know[v] {
				if has {
					known = append(known, m)
				}
			}
			if len(known) == 0 || !slices.Contains(script[round-1], v) {
				continue
			}
			tx = append(tx, v)
			visits += g.Degree(v)
			switch sel {
			case RandomMsg:
				carry[v] = known[rng.Intn(len(known))]
			case RarestFirst:
				best := known[0]
				for _, m := range known {
					if holders[m] < holders[best] {
						best = m
					}
				}
				carry[v] = best
			default:
				carry[v] = known[(round+int(v))%len(known)]
			}
		}
		branches[2*visits >= n]++
		type delivery struct {
			w int32
			m int
		}
		var got []delivery
		for w := int32(0); w < int32(n); w++ {
			if slices.Contains(tx, w) {
				continue
			}
			count, sender := 0, int32(-1)
			for _, v := range tx {
				if g.HasEdge(v, w) {
					count++
					sender = v
				}
			}
			if count == 1 {
				got = append(got, delivery{w, carry[sender]})
			}
		}
		for _, d := range got {
			if know[d.w][d.m] {
				continue
			}
			know[d.w][d.m] = true
			res.Delivered++
			holders[d.m]++
			if holders[d.m] == n {
				res.FirstComplete[d.m] = round
				done++
			}
		}
	}
	res.Completed = done == k
	return res
}

func TestPipelineMatchesReferenceImplementation(t *testing.T) {
	rng := xrand.New(77)
	branches := map[bool]int{}
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(35)
		g := gen.Gnp(n, 0.3, rng)
		src := int32(rng.Intn(n))
		k := 1 + rng.Intn(4)
		script := make([][]int32, 60)
		for r := range script {
			script[r] = rng.Sample(n, 1+rng.Intn(1+n/3))
		}
		for _, sel := range []Selection{RoundRobinMsg, RandomMsg, RarestFirst} {
			seed := uint64(trial)
			got := Run(g, src, k, scripted{script}, sel, len(script), xrand.New(seed))
			want := referencePipeline(g, src, k, script, sel, xrand.New(seed), branches)
			if got.Completed != want.Completed || got.Rounds != want.Rounds || got.Delivered != want.Delivered ||
				!slices.Equal(got.FirstComplete, want.FirstComplete) {
				t.Fatalf("trial %d %v: Run = %+v, reference = %+v", trial, sel, got, want)
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("scripted rounds by dense branch: %v, want both branches", branches)
	}
}
