package lower

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

func connected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Fatalf("no connected sample")
	}
	return g
}

func TestEccentricityBound(t *testing.T) {
	g := gen.Path(10)
	if Eccentricity(g, 0) != 9 {
		t.Fatalf("ecc = %d", Eccentricity(g, 0))
	}
	// Any complete schedule needs at least ecc rounds: verify against the
	// greedy adversary.
	_, res, err := GreedyAdaptiveSchedule(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds < 9 {
		t.Fatalf("greedy on path: %+v", res.Rounds)
	}
}

func TestGreedyAdaptiveCompletesAndIsValid(t *testing.T) {
	g := connected(t, 400, 12, 1)
	sched, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("greedy incomplete: %d/400", res.Informed)
	}
	// Replay validates the schedule independently.
	rep, err := replay(g, 0, sched, radio.StrictInformed)
	if err != nil || !rep.Completed {
		t.Fatalf("replay: %v %d", err, rep.Informed)
	}
	if rep.Rounds != res.Rounds {
		t.Fatalf("replay rounds %d != build rounds %d", rep.Rounds, res.Rounds)
	}
}

// TestGreedyAdaptiveStopsWhenDisconnected: once the source's component is
// informed no set can inform anyone, so the adversary stops incomplete
// instead of padding the schedule with rounds that inform nobody.
func TestGreedyAdaptiveStopsWhenDisconnected(t *testing.T) {
	// Two components: the path 0-1-2-3 and the edge 4-5.
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {4, 5}})
	sched, res, err := GreedyAdaptiveSchedule(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Informed != 4 || res.Rounds != len(sched.Sets) {
		t.Fatalf("result %+v over %d scheduled rounds, want 4 informed and incomplete", res, len(sched.Sets))
	}
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	for i, set := range sched.Sets {
		newly, err := e.Round(set)
		if err != nil || len(newly) == 0 {
			t.Fatalf("round %d (%v) informs %v, err %v", i+1, set, newly, err)
		}
	}
}

func TestGreedyAdaptiveRespectsEccentricity(t *testing.T) {
	g := connected(t, 500, 10, 2)
	ecc := Eccentricity(g, 0)
	_, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < ecc {
		t.Fatalf("greedy finished in %d rounds below eccentricity %d", res.Rounds, ecc)
	}
}

func TestGreedyAdaptiveNotBelowBoundShape(t *testing.T) {
	// E3 in miniature: even the greedy adversary should not finish far
	// below the Theorem 6 shape.
	for _, tc := range []struct {
		n int
		d float64
	}{
		{500, 12}, {1000, 15}, {2000, 18},
	} {
		g := connected(t, tc.n, tc.d, uint64(tc.n))
		_, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		bound := core.CentralizedBound(tc.n, tc.d)
		ratio := float64(res.Rounds) / bound
		if ratio < 0.2 {
			t.Fatalf("n=%d: greedy %d rounds is %.2fx the bound %.1f — far below the lower-bound shape",
				tc.n, res.Rounds, ratio, bound)
		}
	}
}

func TestGreedyFasterThanConstructive(t *testing.T) {
	// The greedy adversary should be no slower than the paper's
	// constructive schedule (it has strictly more freedom).
	const n = 1000
	const d = 15.0
	g := connected(t, n, d, 3)
	_, greedy, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	constructive, err := replay(g, 0, sched, radio.StrictInformed)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Rounds > constructive.Rounds+3 {
		t.Fatalf("greedy (%d) much slower than constructive (%d)", greedy.Rounds, constructive.Rounds)
	}
}

func TestSurvivorProbeExtremes(t *testing.T) {
	rng := xrand.New(4)
	// k = 0 means nobody can be informed beyond... k=1 with tiny k:
	// survival prob per node 1/2 (singleton) — with n = 100 nodes some
	// survivor almost surely.
	if p := SurvivorProbe(100, 1, 200, 0, rng); p < 0.99 {
		t.Fatalf("1-round survivor prob %v, want ~1", p)
	}
	// Very long sequences kill everyone.
	if p := SurvivorProbe(100, 200, 200, 0.5, rng); p > 0.01 {
		t.Fatalf("200-round survivor prob %v, want ~0", p)
	}
	if !math.IsNaN(SurvivorProbe(10, 5, 0, 0.5, rng)) {
		t.Fatal("zero trials should be NaN")
	}
}

// survivorProbeScan is the direct per-vertex reference for SurvivorProbe:
// every trial walks the vertices in order, flipping the set shape and
// edge coins of each step until a vertex survives all k steps, for
// O(n·k) draws per trial.
func survivorProbeScan(n, k, trials int, pairFraction float64, rng *xrand.Rand) float64 {
	if trials <= 0 {
		return math.NaN()
	}
	surviveTrials := 0
	for t := 0; t < trials; t++ {
		found := false
		for v := 0; v < n && !found; v++ {
			alive := true
			for i := 0; i < k; i++ {
				if rng.Float64() < pairFraction {
					// 2-set: survive iff both or neither edge present.
					if rng.Bool() != rng.Bool() {
						alive = false
						break
					}
				} else if rng.Bool() {
					// 1-set: survive iff no edge.
					alive = false
					break
				}
			}
			found = alive
		}
		if found {
			surviveTrials++
		}
	}
	return float64(surviveTrials) / float64(trials)
}

// TestSurvivorProbeMatchesTheory checks the geometric-skip probe and the
// per-vertex scan against P(some of n survives k steps) = 1−(1−s^k)^n,
// s = 1/2 for every pair fraction (both-or-neither edges to a 2-set, no
// edge to a 1-set), within five standard errors; the degenerate k = 0 and
// underflowing k = 2^20 cases are exact.
func TestSurvivorProbeMatchesTheory(t *testing.T) {
	cases := []struct {
		n, k       int
		pf         float64
		scanTrials int // 0: the scan is too slow at this size
	}{
		{100, 0, 0.5, 200},
		{50, 8, 0, 4000},
		{50, 8, 0.5, 4000},
		{50, 8, 1, 4000},
		{1000, 10, 0.5, 1000},
		{1000, 1 << 20, 0.5, 20},
		{1 << 20, 18, 0.5, 16},
		{1 << 20, 24, 0.5, 0},
		{1 << 20, 1 << 20, 1, 0},
	}
	const trials = 20000
	rng := xrand.New(11)
	for _, tc := range cases {
		want := 1 - math.Pow(1-math.Pow(0.5, float64(tc.k)), float64(tc.n))
		check := func(name string, got float64, trials int) {
			tol := 5 * math.Sqrt(want*(1-want)/float64(trials))
			if math.Abs(got-want) > tol {
				t.Errorf("%s(n=%d, k=%d, pf=%g) = %v, closed form %v (tol %.3g)", name, tc.n, tc.k, tc.pf, got, want, tol)
			}
		}
		check("SurvivorProbe", SurvivorProbe(tc.n, tc.k, trials, tc.pf, rng), trials)
		if tc.scanTrials > 0 {
			check("scan", survivorProbeScan(tc.n, tc.k, tc.scanTrials, tc.pf, rng), tc.scanTrials)
		}
	}
}

// TestSurvivorProbeMatchesScan is a two-sample check at small n: over a
// range of k around the survivor threshold, the per-k survivor counts of
// the skip probe and the per-vertex scan must agree (summed 2x2
// chi-square, one degree of freedom per k, 5-sigma band).
func TestSurvivorProbeMatchesScan(t *testing.T) {
	const n, trials = 64, 3000
	ra, rb := xrand.New(21), xrand.New(22)
	chi2, df := 0.0, 0
	for k := 3; k <= 10; k++ {
		a := SurvivorProbe(n, k, trials, 0.5, ra)
		b := survivorProbeScan(n, k, trials, 0.5, rb)
		pool := (a + b) / 2
		if pool == 0 || pool == 1 {
			continue
		}
		chi2 += (a - b) * (a - b) / (pool * (1 - pool) * 2 / trials)
		df++
	}
	if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
		t.Fatalf("skip probe vs scan: chi2=%.1f df=%d (limit %.1f)", chi2, df, limit)
	}
}

func TestSurvivorThresholdGrowsLogarithmically(t *testing.T) {
	rng := xrand.New(6)
	t1 := SurvivorThreshold(1<<8, 400, 0.5, rng)
	t2 := SurvivorThreshold(1<<16, 400, 0.5, rng)
	// Theory: threshold ≈ log_{1/s} n where s is per-round survival; the
	// n = 2^16 threshold should be about double the 2^8 one, certainly not
	// 256x (linear) and not equal (constant).
	if t2 <= t1 {
		t.Fatalf("threshold did not grow: %d -> %d", t1, t2)
	}
	ratio := float64(t2) / float64(t1)
	if ratio > 4 {
		t.Fatalf("threshold grew too fast: %d -> %d", t1, t2)
	}
}

func TestSequenceProtocol(t *testing.T) {
	p := &SequenceProtocol{Q: []float64{1, 0}}
	rng := xrand.New(7)
	if !p.Transmit(0, 1, 0, rng) {
		t.Fatal("q=1 round did not transmit")
	}
	if p.Transmit(0, 2, 0, rng) {
		t.Fatal("q=0 round transmitted")
	}
	if !p.Transmit(0, 3, 0, rng) {
		t.Fatal("cycle did not wrap")
	}
	empty := &SequenceProtocol{}
	if empty.Transmit(0, 1, 0, rng) {
		t.Fatal("empty sequence transmitted")
	}
}

func TestSequenceProtocolRoundProb(t *testing.T) {
	p := &SequenceProtocol{Q: []float64{0.25, 1, 0}}
	for round, want := range map[int]float64{1: 0.25, 2: 1, 3: 0, 4: 0.25, 8: 1} {
		q, cohort, ok := p.RoundProb(round)
		if !ok || q != want || cohort != radio.AllInformed {
			t.Fatalf("round %d: RoundProb = (%v, %v, %v), want (%v, AllInformed, true)", round, q, cohort, ok, want)
		}
	}
	if q, _, ok := (&SequenceProtocol{}).RoundProb(1); !ok || q != 0 {
		t.Fatalf("empty sequence: RoundProb = (%v, %v), want (0, true)", q, ok)
	}
}

// sequenceFixture is a flood-then-select oblivious sequence on a
// connected G(n, p) graph with d = 2 ln n, E6's regime.
func sequenceFixture(t testing.TB) (*graph.Graph, *SequenceProtocol, int) {
	const n = 400
	d := 2 * math.Log(n)
	q := make([]float64, 40)
	for i := range q {
		q[i] = 1 / d
	}
	q[0], q[1] = 1, 1
	return connected(t, n, d, 31), &SequenceProtocol{Q: q}, core.MaxRoundsFor(n)
}

// TestSequenceProtocolRunsOnLanes: oblivious sequence batches classify
// onto the lane engine and run there without a scalar fallback.
func TestSequenceProtocolRunsOnLanes(t *testing.T) {
	g, p, maxRounds := sequenceFixture(t)
	req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds}
	if got := exec.ClassifyBatch(req); got != exec.BackendLanes {
		t.Fatalf("ClassifyBatch = %v, want lanes", got)
	}
	x := exec.New()
	out := make([]int, 100)
	backend, err := x.RunSeeds(context.Background(), req, sweep.Seeds(len(out), 3), out)
	if err != nil {
		t.Fatal(err)
	}
	st := x.Snapshot()
	if backend != exec.BackendLanes || st.Scalar.Fallbacks != 0 || st.Lanes.Trials != int64(len(out)) {
		t.Fatalf("backend %v, counters %+v: want %d lane trials and no fallback", backend, st, len(out))
	}
}

// TestSequenceProtocolPathsAgree: the sampled scalar path and the lane
// engine reproduce the completion-round law of the per-node stream.
func TestSequenceProtocolPathsAgree(t *testing.T) {
	g, p, maxRounds := sequenceFixture(t)
	const trials = 800
	seeds := sweep.Seeds(trials, 41)
	req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds}
	sampled, perNode := make([]int, trials), make([]int, trials)
	for i, s := range seeds {
		sampled[i], _ = exec.Time(context.Background(), req, xrand.New(s))
	}
	req.PerNode = true
	for i, s := range seeds {
		perNode[i], _ = exec.Time(context.Background(), req, xrand.New(s))
	}
	plan, ok := lanes.NewPlan(p, maxRounds)
	if !ok {
		t.Fatal("sequence protocol has no lane plan")
	}
	lane := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 0, 0, lane); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]int{"sampled": sampled, "lanes": lane} {
		chi2, df := chiSquareTwoSample(got, perNode)
		if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
			t.Errorf("%s vs per-node completion rounds: chi2=%.1f df=%d (limit %.1f)", name, chi2, df, limit)
		}
	}
}

// chiSquareTwoSample compares two equal-size samples of completion rounds,
// merging adjacent rounds until each bin holds at least 20 pooled
// samples, and returns the statistic with its degrees of freedom.
func chiSquareTwoSample(a, b []int) (float64, int) {
	ha, hb := map[int]int{}, map[int]int{}
	for i := range a {
		ha[a[i]]++
		hb[b[i]]++
	}
	var rounds []int
	for r := range ha {
		rounds = append(rounds, r)
	}
	for r := range hb {
		if ha[r] == 0 {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	chi2, bins := 0.0, 0
	ca, cb := 0, 0
	flush := func() {
		d := float64(ca - cb)
		chi2 += d * d / float64(ca+cb)
		bins++
		ca, cb = 0, 0
	}
	for i, r := range rounds {
		ca += ha[r]
		cb += hb[r]
		if ca+cb >= 20 || (i == len(rounds)-1 && ca+cb > 0) {
			flush()
		}
	}
	return chi2, bins - 1
}

func TestCandidateSequencesValid(t *testing.T) {
	cands := CandidateSequences(20, 10)
	if len(cands) < 8 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, c := range cands {
		if len(c.Q) == 0 {
			t.Fatal("empty candidate")
		}
		for _, q := range c.Q {
			if q < 0 || q > 1 {
				t.Fatalf("probability %v out of range", q)
			}
		}
	}
	// Degenerate period.
	if cands := CandidateSequences(5, 0); len(cands) == 0 {
		t.Fatal("no candidates for period 0")
	}
}

func TestOptimizeSequenceFindsReasonableProtocol(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 8)
	rng := xrand.New(9)
	best, bestP := OptimizeSequence(g, 0, d, core.MaxRoundsFor(n), 3, rng)
	if bestP == nil {
		t.Fatal("no best protocol")
	}
	if best > float64(core.MaxRoundsFor(n)) {
		t.Fatalf("no candidate completed: best = %v", best)
	}
	// Theorem 8: even the best oblivious sequence needs Ω(ln n).
	if best < 0.5*math.Log(float64(n)) {
		t.Fatalf("best oblivious time %v below ln n/2 = %v — contradicts Theorem 8 shape",
			best, 0.5*math.Log(float64(n)))
	}
}

func BenchmarkGreedyAdaptive(b *testing.B) {
	g := connected(b, 500, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GreedyAdaptiveSchedule(g, 0, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurvivorProbe(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		SurvivorProbe(1000, 20, 100, 0.5, rng)
	}
}

// BenchmarkSurvivorThreshold runs E3b's medium-scale search: n = 2^20,
// 400 probe trials per k.
func BenchmarkSurvivorThreshold(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		SurvivorThreshold(1<<20, 400, 0.5, rng)
	}
}

// replay replays s from src on g under policy through exec.
func replay(g *graph.Graph, src int32, s *radio.Schedule, policy radio.TransmitterPolicy) (radio.Result, error) {
	req := &exec.Request{Graph: g, Sources: []int32{src}, Schedule: s, Engine: radio.NewEngine(g, src, policy)}
	return exec.Run(context.Background(), req, nil)
}
