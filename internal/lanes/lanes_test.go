package lanes_test

// Differential and invariance tests for the bit-parallel lane engine.
//
// The engine's correctness story has two halves, tested separately:
//
//  1. Mechanics: for whatever transmitter sets the engine drew, the
//     per-lane reception/collision classification must match the naive
//     oracle exactly. Each lane's recorded transmitter sets are replayed
//     through oracle.Engine.Replay and the informed sets, informed-at
//     times, completion rounds and per-round success/collision counts
//     must be bit-identical.
//
//  2. Distribution: the lane engine is a new randomness stream (the
//     PR 3 policy), so individual trials differ bit-wise from scalar
//     trials; the per-trial completion-round DISTRIBUTION must agree,
//     checked by a two-sample chi-square against the scalar sampled
//     path.
//
// Lane purity — each trial a pure function of its own seed — is what the
// campaign determinism guarantees rest on, so it gets its own tests:
// results must be bitwise invariant under lane width, block composition,
// position within a block, worker count and GOMAXPROCS.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

func testGraph(t *testing.T, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	return gen.Gnp(n, d/float64(n), xrand.New(seed))
}

func mustPlan(t *testing.T, p radio.Protocol, maxRounds int) *lanes.Plan {
	t.Helper()
	plan, ok := lanes.NewPlan(p, maxRounds)
	if !ok {
		t.Fatalf("protocol %T did not yield a uniform plan", p)
	}
	return plan
}

func TestLaneVsOracleReplay(t *testing.T) {
	configs := []struct {
		name string
		n    int
		d    float64
		p    func(n int, d float64) radio.Protocol
	}{
		{"distributed", 90, 6, func(n int, d float64) radio.Protocol { return core.NewDistributedProtocol(n, d) }},
		{"restricted-pool", 120, 8, func(n int, d float64) radio.Protocol { return core.NewRestrictedPoolProtocol(n, d) }},
		{"decay", 70, 5, func(n int, d float64) radio.Protocol { return protocols.NewDecay(n) }},
		{"aloha", 60, 4, func(n int, d float64) radio.Protocol { return protocols.NewAloha(d) }},
		{"flood", 40, 4, func(n int, d float64) radio.Protocol { return protocols.Flood{} }},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			g := testGraph(t, cfg.n, cfg.d, 1000+uint64(ci))
			p := cfg.p(cfg.n, cfg.d)
			maxRounds := core.MaxRoundsFor(cfg.n)
			plan := mustPlan(t, p, maxRounds)
			e := lanes.NewEngine(g, []int32{0}, plan)
			var tr lanes.Trace
			e.SetTrace(&tr)

			const width = 8
			seeds := sweep.Seeds(width, 4321+uint64(ci))
			out := make([]int, width)
			e.Run(seeds, out)

			for lane := 0; lane < width; lane++ {
				o := oracle.New(g, []int32{0}, radio.StrictInformed)
				res, err := o.Replay(tr.Sets[lane])
				if err != nil {
					t.Fatalf("lane %d: oracle replay: %v", lane, err)
				}
				if res.Completed {
					if out[lane] != res.Rounds {
						t.Errorf("lane %d: completion round %d, oracle %d", lane, out[lane], res.Rounds)
					}
				} else if out[lane] != maxRounds+1 {
					t.Errorf("lane %d: oracle incomplete but lane reports %d", lane, out[lane])
				}
				for v := 0; v < cfg.n; v++ {
					if tr.InformedAt[lane][v] != res.InformedAt[v] {
						t.Fatalf("lane %d: InformedAt[%d] = %d, oracle %d",
							lane, v, tr.InformedAt[lane][v], res.InformedAt[v])
					}
				}
				if len(tr.Stats[lane]) != len(o.Records) {
					t.Fatalf("lane %d: %d stat rows, oracle %d rounds", lane, len(tr.Stats[lane]), len(o.Records))
				}
				for r, rs := range tr.Stats[lane] {
					rec := o.Records[r]
					if rs.Transmitters != rec.Transmitters || rs.Successes != rec.Successes ||
						rs.Collisions != rec.Collisions || rs.NewlyInformed != rec.NewlyInformed {
						t.Fatalf("lane %d round %d: lane stats %+v, oracle tx=%d succ=%d coll=%d newly=%d",
							lane, r+1, rs, rec.Transmitters, rec.Successes, rec.Collisions, rec.NewlyInformed)
					}
				}
			}
		})
	}
}

// TestLanePurity: a trial's outcome depends only on its own seed — not on
// the lane width, its position within a block, or which other trials
// share the block. This is the property that makes campaign reports
// deterministic however their trials are blocked.
func TestLanePurity(t *testing.T) {
	g := testGraph(t, 200, 7, 99)
	p := core.NewDistributedProtocol(200, 7)
	maxRounds := core.MaxRoundsFor(200)
	plan := mustPlan(t, p, maxRounds)

	const trials = 130
	seeds := sweep.Seeds(trials, 2006)
	ref := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 64, 1, ref); err != nil {
		t.Fatal(err)
	}

	// Width 1: every trial alone in its own block.
	solo := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 1, 1, solo); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if solo[i] != ref[i] {
			t.Fatalf("trial %d: solo run %d, 64-lane block %d", i, solo[i], ref[i])
		}
	}

	// Reversed block composition: trial seeds in reverse order must give
	// the reversed results exactly.
	rev := make([]uint64, trials)
	for i, s := range seeds {
		rev[trials-1-i] = s
	}
	revOut := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, rev, 64, 1, revOut); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if revOut[trials-1-i] != ref[i] {
			t.Fatalf("trial %d: result changed when block composition reversed", i)
		}
	}
}

func TestRunBlocksWidthWorkerGomaxprocsInvariance(t *testing.T) {
	g := testGraph(t, 150, 6, 5)
	p := core.NewDistributedProtocol(150, 6)
	plan := mustPlan(t, p, core.MaxRoundsFor(150))
	seeds := sweep.Seeds(200, 77)

	run := func(width, workers int) []int {
		out := make([]int, len(seeds))
		if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, width, workers, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(64, 1)
	for _, width := range []int{64, 13, 7} {
		for _, workers := range []int{1, 3, 8} {
			got := run(width, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("width=%d workers=%d: trial %d got %d want %d", width, workers, i, got[i], ref[i])
				}
			}
		}
	}
	prev := runtime.GOMAXPROCS(1)
	got1 := run(64, 0)
	runtime.GOMAXPROCS(4)
	got4 := run(64, 0)
	runtime.GOMAXPROCS(prev)
	for i := range ref {
		if got1[i] != ref[i] || got4[i] != ref[i] {
			t.Fatalf("GOMAXPROCS variance at trial %d", i)
		}
	}
}

func TestLaneBudgetAndDegenerateCases(t *testing.T) {
	// No edges: nothing beyond the source ever gets informed; every lane
	// must report the budget sentinel.
	g := testGraph(t, 12, 0, 3)
	if g.M() != 0 {
		t.Fatalf("expected empty graph, got %d edges", g.M())
	}
	p := core.NewDistributedProtocol(12, 4)
	maxRounds := 20
	plan := mustPlan(t, p, maxRounds)
	e := lanes.NewEngine(g, []int32{0}, plan)
	seeds := sweep.Seeds(5, 9)
	out := make([]int, 5)
	e.Run(seeds, out)
	for i, r := range out {
		if r != maxRounds+1 {
			t.Fatalf("lane %d: got %d, want sentinel %d", i, r, maxRounds+1)
		}
	}

	// Zero budget: the sentinel is 1, matching exec.Time.
	plan0 := mustPlan(t, p, 0)
	e0 := lanes.NewEngine(g, []int32{0}, plan0)
	out0 := make([]int, 2)
	e0.Run(seeds[:2], out0)
	for _, r := range out0 {
		if r != 1 {
			t.Fatalf("zero budget: got %d, want 1", r)
		}
	}

	// All nodes sources: complete at round 0.
	g2 := testGraph(t, 4, 2, 11)
	plan2 := mustPlan(t, core.NewDistributedProtocol(4, 2), 8)
	e2 := lanes.NewEngine(g2, []int32{0, 1, 2, 3}, plan2)
	out2 := make([]int, 3)
	e2.Run(seeds[:3], out2)
	for _, r := range out2 {
		if r != 0 {
			t.Fatalf("all-source run: got %d, want 0", r)
		}
	}
}

// TestLaneEngineReuse: a reused engine must produce exactly the results a
// fresh engine does, block after block.
func TestLaneEngineReuse(t *testing.T) {
	g := testGraph(t, 120, 6, 21)
	p := protocols.NewDecay(120)
	plan := mustPlan(t, p, core.MaxRoundsFor(120))
	reused := lanes.NewEngine(g, []int32{0}, plan)
	for block := 0; block < 4; block++ {
		seeds := sweep.Seeds(17, 500+uint64(block))
		got := make([]int, len(seeds))
		want := make([]int, len(seeds))
		reused.Run(seeds, got)
		lanes.NewEngine(g, []int32{0}, plan).Run(seeds, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d trial %d: reused %d, fresh %d", block, i, got[i], want[i])
			}
		}
	}
}

// lateCohortProtocol is silent for rounds 1-3 and then transmits with
// probability 1/2 from the InformedBy(2) cohort — which therefore never
// grows past the sources, so no commit ever refreshes its prefix length.
type lateCohortProtocol struct{}

func (lateCohortProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	panic("lane-only test protocol")
}

func (lateCohortProtocol) RoundProb(round int) (float64, radio.Cohort, bool) {
	if round <= 3 {
		return 0, radio.AllInformed, true
	}
	return 0.5, radio.InformedBy(2), true
}

// TestLaneCohortResetPerRun: an InformedBy cohort's prefix length is
// reset by every run, not only refreshed by commits. On a complete graph
// only the source may transmit, so a stale prefix reaching into the
// previous run's eligible list would add colliding transmitters.
func TestLaneCohortResetPerRun(t *testing.T) {
	const n = 8
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	plan := mustPlan(t, lateCohortProtocol{}, 60)
	reused := lanes.NewEngine(g, []int32{0}, plan)
	for run := 0; run < 3; run++ {
		seeds := sweep.Seeds(lanes.Width, 60+uint64(run))
		got := make([]int, len(seeds))
		want := make([]int, len(seeds))
		reused.Run(seeds, got)
		lanes.NewEngine(g, []int32{0}, plan).Run(seeds, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d lane %d: reused %d, fresh %d", run, i, got[i], want[i])
			}
		}
	}
}

// TestNonUniformProtocolHasNoPlan: protocols without the capability (or
// with any non-uniform round) must be declined so callers fall back.
func TestNonUniformProtocolHasNoPlan(t *testing.T) {
	rr := &protocols.RoundRobin{N: 10}
	if _, ok := lanes.NewPlan(rr, 10); ok {
		t.Fatal("RoundRobin should not plan (no UniformProtocol)")
	}
	if _, ok := lanes.NewPlan(mixedProtocol{}, 10); ok {
		t.Fatal("protocol with a non-uniform round should not plan")
	}
}

type mixedProtocol struct{}

func (mixedProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return round%2 == 0
}

func (mixedProtocol) RoundProb(round int) (float64, radio.Cohort, bool) {
	if round == 3 {
		return 0, radio.AllInformed, false // one non-uniform round poisons the plan
	}
	return 0.5, radio.AllInformed, true
}

// TestLaneVsScalarDistribution: per-trial completion rounds from the lane
// engine and the scalar sampled path are different streams but must be
// draws from the same distribution (two-sample chi-square, balanced
// pooled-quantile bins, 5-sigma acceptance like the xrand suites).
func TestLaneVsScalarDistribution(t *testing.T) {
	g := testGraph(t, 150, 8, 42)
	p := core.NewDistributedProtocol(150, 8)
	maxRounds := core.MaxRoundsFor(150)
	plan := mustPlan(t, p, maxRounds)

	const trials = 800
	seeds := sweep.Seeds(trials, 7)
	lane := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 64, 1, lane); err != nil {
		t.Fatal(err)
	}
	scalar := make([]int, trials)
	sess := exec.Open(&exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds})
	for i, s := range seeds {
		scalar[i], _ = sess.Time(context.Background(), xrand.New(s))
	}
	chi2, df := twoSampleChiSquare(lane, scalar, 8)
	if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
		t.Fatalf("lane vs scalar completion-round distributions diverge: chi2=%.1f df=%d limit=%.1f", chi2, df, limit)
	}
}

// twoSampleChiSquare bins the pooled samples into (at most) `bins`
// balanced quantile bins and returns the two-sample chi-square statistic
// with its degrees of freedom.
func twoSampleChiSquare(a, b []int, bins int) (chi2 float64, df int) {
	pooled := make([]int, 0, len(a)+len(b))
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	sort.Ints(pooled)
	var edges []int
	for i := 1; i < bins; i++ {
		e := pooled[i*len(pooled)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	binOf := func(v int) int {
		lo := 0
		for lo < len(edges) && v >= edges[lo] {
			lo++
		}
		return lo
	}
	nb := len(edges) + 1
	ca, cb := make([]float64, nb), make([]float64, nb)
	for _, v := range a {
		ca[binOf(v)]++
	}
	for _, v := range b {
		cb[binOf(v)]++
	}
	na, nbTot := float64(len(a)), float64(len(b))
	tot := na + nbTot
	for i := 0; i < nb; i++ {
		pool := ca[i] + cb[i]
		if pool == 0 {
			continue
		}
		ea := na * pool / tot
		eb := nbTot * pool / tot
		chi2 += (ca[i]-ea)*(ca[i]-ea)/ea + (cb[i]-eb)*(cb[i]-eb)/eb
	}
	return chi2, nb - 1
}

// TestSweepRunLanes: the sweep wrapper agrees with direct RunBlocks,
// declines non-uniform protocols, and propagates cancellation.
func TestSweepRunLanes(t *testing.T) {
	g := testGraph(t, 100, 6, 13)
	p := core.NewDistributedProtocol(100, 6)
	maxRounds := core.MaxRoundsFor(100)
	values, ok, err := sweep.RunLanes(context.Background(), g, 0, p, maxRounds, 50, 321)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("RunLanes declined a uniform protocol")
	}
	plan := mustPlan(t, p, maxRounds)
	want := make([]int, 50)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, sweep.Seeds(50, 321), 0, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i] != float64(want[i]) {
			t.Fatalf("trial %d: RunLanes %v, RunBlocks %d", i, values[i], want[i])
		}
	}
	if _, ok, err := sweep.RunLanes(context.Background(), g, 0, &protocols.RoundRobin{N: 100}, maxRounds, 10, 1); ok || err != nil {
		t.Fatalf("RunLanes on a non-uniform protocol: ok=%v err=%v, want a clean decline", ok, err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := sweep.RunLanes(canceled, g, 0, p, maxRounds, 50, 321); !ok || !errors.Is(err, radio.ErrCanceled) {
		t.Fatalf("RunLanes under canceled ctx: ok=%v err=%v, want ok with ErrCanceled", ok, err)
	}
}

// TestShard pins the block shapes RunBlocks resolves: the default width
// balances a batch across the workers (64 trials on two workers are two
// 32-lane blocks), an explicit width is honoured, and the worker count
// never exceeds the block count.
func TestShard(t *testing.T) {
	for _, c := range []struct{ trials, width, workers, wantWidth, wantWorkers int }{
		{64, 0, 2, 32, 2},
		{64, 0, 1, 64, 1},
		{65, 0, 1, 33, 1},   // two blocks on one worker
		{130, 0, 2, 33, 2},  // three blocks round up to four
		{100, 0, 3, 34, 3},  // one block per worker
		{1, 0, 4, 1, 1},     // capped at one block per trial
		{2, 0, 3, 1, 2},     // capped at one block per trial
		{64, 16, 2, 16, 2},  // explicit width
		{64, 64, 4, 64, 1},  // explicit full width: one block
		{64, 200, 2, 32, 2}, // out-of-range width means default
		{0, 0, 2, lanes.Width, 0},
	} {
		w, k := lanes.Shard(c.trials, c.width, c.workers)
		if w != c.wantWidth || k != c.wantWorkers {
			t.Errorf("Shard(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.trials, c.width, c.workers, w, k, c.wantWidth, c.wantWorkers)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if w, k := lanes.Shard(64, 0, 0); w != lanes.Width || k != 1 {
		t.Errorf("GOMAXPROCS=1: Shard(64, 0, 0) = (%d, %d), want one full block", w, k)
	}
}

// TestDefaultWidthSharding: the balanced default sharding is bit-identical
// to full 64-lane blocks on one worker, for every batch size and worker
// count — lane purity is what makes the block shape invisible.
func TestDefaultWidthSharding(t *testing.T) {
	g := testGraph(t, 150, 6, 31)
	plan := mustPlan(t, core.NewDistributedProtocol(150, 6), core.MaxRoundsFor(150))
	for _, trials := range []int{1, 2, 63, 64, 65, 100, 130} {
		seeds := sweep.Seeds(trials, 900+uint64(trials))
		want := make([]int, trials)
		if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, lanes.Width, 1, want); err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			got := make([]int, trials)
			if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 0, workers, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("T=%d workers=%d: trial %d got %d, 64-lane block %d", trials, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneEngineRetarget: one engine cycled — detached in between, as
// the exec pool does — across graphs of different sizes (shrinking and
// growing past its capacity), plans with zero and one InformedBy cutoff,
// and different source sets runs every block bit-identically to a fresh
// engine built for that target.
func TestLaneEngineRetarget(t *testing.T) {
	big, small, bigger := testGraph(t, 180, 8, 41), testGraph(t, 60, 6, 42), testGraph(t, 300, 8, 43)
	distributed := func(g *graph.Graph) *lanes.Plan {
		return mustPlan(t, core.NewDistributedProtocol(g.N(), 8), core.MaxRoundsFor(g.N()))
	}
	restricted := func(g *graph.Graph) *lanes.Plan {
		return mustPlan(t, core.NewRestrictedPoolProtocol(g.N(), 8), core.MaxRoundsFor(g.N()))
	}
	targets := []struct {
		g       *graph.Graph
		sources []int32
		plan    *lanes.Plan
	}{
		{big, []int32{0}, restricted(big)},
		{small, []int32{5}, distributed(small)},
		{big, []int32{3, 7, 3}, distributed(big)},
		{small, []int32{0, 1}, restricted(small)},
		{bigger, []int32{9}, restricted(bigger)},
		{small, []int32{2}, distributed(small)},
	}
	e := lanes.NewEngine(targets[0].g, targets[0].sources, targets[0].plan)
	for ti, tg := range targets {
		if ti > 0 {
			e.Detach()
			e.Retarget(tg.g, tg.sources, tg.plan)
		}
		for _, width := range []int{lanes.Width, 17} {
			seeds := sweep.Seeds(width, 700+uint64(100*ti+width))
			got := make([]int, width)
			want := make([]int, width)
			e.Run(seeds, got)
			lanes.NewEngine(tg.g, tg.sources, tg.plan).Run(seeds, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("target %d width %d lane %d: retargeted %d, fresh %d", ti, width, i, got[i], want[i])
				}
			}
		}
	}
	if e.Cap() < bigger.N() {
		t.Errorf("Cap() = %d after serving n=%d", e.Cap(), bigger.N())
	}
}

// TestRunBlocksBadSourcePanicsOnCaller: an out-of-range source panics on
// the calling goroutine (engines are built before the workers start), so
// the caller can recover it instead of losing the process.
func TestRunBlocksBadSourcePanicsOnCaller(t *testing.T) {
	g := testGraph(t, 200, 6, 7)
	plan := mustPlan(t, core.NewDistributedProtocol(200, 6), core.MaxRoundsFor(200))
	seeds := sweep.Seeds(128, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RunBlocks with source 500 on a 200-node graph did not panic")
		}
	}()
	_ = lanes.RunBlocks(context.Background(), g, []int32{500}, plan, seeds, 0, 4, make([]int, len(seeds)))
}
