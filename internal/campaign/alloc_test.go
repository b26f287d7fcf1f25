package campaign

import (
	"context"
	"testing"

	"repro/internal/xrand"
)

// Steady-state allocation regressions for the trial hot loops: a
// fixed-graph runner builds its graph and engine once, so per-trial work
// must not allocate — neither on the scalar path (Session.Time
// materialises no Result) nor on the lane batch path (the lane engine
// reuses every buffer across Run calls).

func fixedPoint(kind string) PointSpec {
	return PointSpec{ID: "p", X: 1, Trial: TrialSpec{Kind: kind, N: 400, D: 12, FixedGraph: true}}
}

func TestFixedGraphTrialAllocs(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate"} {
		runner, err := newRunner(fixedPoint(kind), 7)
		if err != nil {
			t.Fatal(err)
		}
		seed := []uint64{1}
		values, oks := make([]float64, 1), make([]bool, 1)
		if err := runner.RunTrials(ctx, seed, values, oks); err != nil {
			t.Fatal(err) // warm up lazily grown engine scratch
		}
		allocs := testing.AllocsPerRun(20, func() {
			seed[0] = 99
			if err := runner.RunTrials(ctx, seed, values, oks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s fixed-graph trial allocates %.1f objects/trial, want 0", kind, allocs)
		}
	}
}

func TestLaneBatchSteadyStateAllocs(t *testing.T) {
	runner, err := newRunner(fixedPoint("distributed"), 7)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 16
	seeds := make([]uint64, trials)
	values := make([]float64, trials)
	oks := make([]bool, trials)
	parent := xrand.New(3)
	fill := func(base uint64) {
		for i := range seeds {
			seeds[i] = parent.DeriveSeed(base + uint64(i) + 1)
		}
	}
	fill(0)
	if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
		t.Fatal(err) // warm up: builds the lane engine and its buffers
	}
	fill(trials)
	if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
		t.Fatal(err) // second warm run settles amortized buffer growth
	}
	allocs := testing.AllocsPerRun(10, func() {
		fill(2 * trials)
		if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("lane batch allocates %.1f objects/block in steady state, want 0", allocs)
	}
	for i, v := range values {
		if !oks[i] || v < 1 {
			t.Fatalf("trial %d: implausible value %v (ok=%v)", i, v, oks[i])
		}
	}
}
