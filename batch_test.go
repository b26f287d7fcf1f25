package repro_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro"
	"repro/internal/exec"
	"repro/internal/lanes"
	"repro/internal/protocols"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

func batchGraph(t *testing.T) *repro.Graph {
	t.Helper()
	g, ok := repro.ConnectedGnpDegree(600, 12, repro.NewRand(5))
	if !ok {
		t.Fatal("no connected sample")
	}
	return g
}

// TestRunBatchMatchesRunBlocks: the facade is exactly the lane engine
// over the repository-wide trial-seed convention.
func TestRunBatchMatchesRunBlocks(t *testing.T) {
	g := batchGraph(t)
	const trials = 130 // spans three 64-lane blocks, last one partial
	got, err := repro.RunBatch(g, 0, trials, repro.WithDegree(12), repro.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	p := repro.NewProtocol(600, 12)
	budget := repro.MaxRounds(600)
	plan, ok := lanes.NewPlan(p, budget)
	if !ok {
		t.Fatal("distributed protocol must be lane-uniform")
	}
	want := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, sweep.Seeds(trials, 99), 0, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: RunBatch %d != RunBlocks %d", i, got[i], want[i])
		}
	}
	for i, r := range got {
		if r < 1 || r > budget {
			t.Fatalf("trial %d: round %d outside [1, %d]", i, r, budget)
		}
	}
}

// nonUniformProtocol transmits only from odd nodes — its rounds are not
// uniform across informed nodes, so RunBatch must fall back to scalar
// per-trial engines.
type nonUniformProtocol struct{}

func (nonUniformProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return v%2 == 1 && rng.Bernoulli(0.3)
}

func TestRunBatchScalarFallback(t *testing.T) {
	g := batchGraph(t)
	if _, ok := lanes.NewPlan(nonUniformProtocol{}, 10); ok {
		t.Fatal("test protocol must not be lane-uniform")
	}
	const trials = 9
	a, err := repro.RunBatch(g, 0, trials, repro.WithProtocol(nonUniformProtocol{}), repro.WithSeed(7), repro.WithMaxRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.RunBatch(g, 0, trials, repro.WithProtocol(nonUniformProtocol{}), repro.WithSeed(7), repro.WithMaxRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d not deterministic: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 1 || a[i] > 201 {
			t.Fatalf("trial %d: round %d outside [1, 201]", i, a[i])
		}
	}
}

func TestRunBatchOptionErrors(t *testing.T) {
	g := batchGraph(t)
	sched, err := repro.BuildSchedule(g, 0, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []repro.Option
	}{
		{"schedule", []repro.Option{repro.WithSchedule(sched)}},
		{"observer", []repro.Option{repro.WithObserver(&repro.Counters{})}},
		{"rand", []repro.Option{repro.WithRand(repro.NewRand(1))}},
		{"pernode", []repro.Option{repro.WithPerNodeSampling()}},
		{"protocol+degree", []repro.Option{repro.WithProtocol(nonUniformProtocol{}), repro.WithDegree(3)}},
		{"negative budget", []repro.Option{repro.WithMaxRounds(-1)}},
		{"bad source", []repro.Option{repro.WithSources(100000)}},
	}
	for _, tc := range cases {
		_, err := repro.RunBatch(g, 0, 4, tc.opts...)
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !errors.Is(err, repro.ErrConflictingOptions) && !errors.Is(err, repro.ErrNoSuchSource) {
			t.Errorf("%s: error %v not classified by a sentinel", tc.name, err)
		}
	}
}

func TestRunBatchEmptyAndCancel(t *testing.T) {
	g := batchGraph(t)
	out, err := repro.RunBatch(g, 0, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("zero trials: got %v, %v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.RunBatch(g, 0, 8, repro.WithContext(ctx)); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("canceled batch: got %v, want ErrCanceled", err)
	}
}

// TestTinyTransmitProbability: a transmit probability whose geometric
// skips exceed every int must neither panic nor let anyone transmit —
// neither on the scalar sampled path (Binomial feeding PartialShuffle)
// nor on the lane path (per-lane skip loops indexing eligible lists).
func TestTinyTransmitProbability(t *testing.T) {
	g := batchGraph(t)
	const budget = 40
	p := &protocols.Aloha{P: 1e-30}
	res, err := repro.Run(g, 0, repro.WithProtocol(p), repro.WithMaxRounds(budget), repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Informed != 1 || res.Rounds != budget {
		t.Fatalf("Run: completed=%v informed=%d rounds=%d, want only the source informed after %d rounds",
			res.Completed, res.Informed, res.Rounds, budget)
	}
	got, err := repro.RunBatch(g, 0, 70, repro.WithProtocol(p), repro.WithMaxRounds(budget), repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != budget+1 {
			t.Fatalf("RunBatch trial %d: round %d, want the incomplete sentinel %d", i, r, budget+1)
		}
	}
}

// TestRunBatchGomaxprocsInvariance: the default block shape follows
// GOMAXPROCS (two 32-lane blocks for 64 trials on two CPUs, one 64-lane
// block on one), but the values never do.
func TestRunBatchGomaxprocsInvariance(t *testing.T) {
	g := batchGraph(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, trials := range []int{64, 130} {
		var ref []int
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := repro.RunBatch(g, 0, trials, repro.WithDegree(12), repro.WithSeed(2006))
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("%d trials: GOMAXPROCS=%d changed the results", trials, procs)
			}
		}
	}
}

// TestRunBatchLanePoolBounded: one-shot batches on a stream of fresh
// graphs of varying size never grow the lane-engine free list beyond
// GOMAXPROCS — the pool is bounded in total, not per graph.
func TestRunBatchLanePoolBounded(t *testing.T) {
	for i := 0; i < 200; i++ {
		n := 40 + (i*37)%160
		g := repro.GnpDegree(n, 6, repro.NewRand(uint64(i)+1))
		if _, err := repro.RunBatch(g, 0, 64, repro.WithDegree(6), repro.WithSeed(uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
		if idle, limit := exec.IdleLaneEngines(), runtime.GOMAXPROCS(0); idle > limit {
			t.Fatalf("graph %d: %d idle lane engines, above GOMAXPROCS = %d", i, idle, limit)
		}
	}
}
