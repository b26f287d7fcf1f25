// Package sweep runs experiment trials, fanning independent trials out to
// a worker pool and collecting per-configuration samples. Every trial gets
// a deterministic derived seed, so sweeps are reproducible regardless of
// scheduling order.
package sweep

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Trial is a single experiment execution: given a deterministic RNG it
// returns one scalar measurement.
type Trial func(rng *xrand.Rand) float64

// Seeds returns the per-trial seeds that Run and RunWith derive from
// baseSeed: trial i uses xrand.New(baseSeed).DeriveSeed(i+1). The mapping
// is the repository-wide convention for fanning one base seed out to
// independent trials — the campaign runner uses it so a campaign point
// with the same base seed replays exactly the trials a sweep would run,
// regardless of worker count, interruption or resume order.
func Seeds(trials int, baseSeed uint64) []uint64 {
	if trials <= 0 {
		return nil
	}
	parent := xrand.New(baseSeed)
	out := make([]uint64, trials)
	for i := range out {
		out[i] = parent.DeriveSeed(uint64(i) + 1)
	}
	return out
}

// Run executes the trial `trials` times with seeds derived from baseSeed
// and returns the measurements ordered by trial index. Trials run
// concurrently on up to GOMAXPROCS goroutines.
func Run(trials int, baseSeed uint64, trial Trial) []float64 {
	return RunWith(trials, baseSeed,
		func() struct{} { return struct{}{} },
		func(rng *xrand.Rand, _ struct{}) float64 { return trial(rng) })
}

// RunWith is Run for trials that reuse expensive per-worker state: each
// worker goroutine calls newCtx exactly once and passes the context to
// every trial it executes, so a 1000-trial sweep over one graph builds
// graph-sized simulation state (engine, scratch buffers, ...) once per
// worker instead of once per trial.
//
// Trial randomness still comes exclusively from the per-trial derived rng,
// and a trial must leave no result-relevant state in the context (reset it
// at the start of the trial, as exec.Session.Time does); under that
// contract the measurements are identical to Run's for the same baseSeed,
// independent of worker count and scheduling.
func RunWith[C any](trials int, baseSeed uint64, newCtx func() C, trial func(rng *xrand.Rand, ctx C) float64) []float64 {
	out := make([]float64, trials)
	if trials <= 0 {
		return out[:0]
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	// Pre-derive seeds sequentially so results are independent of worker
	// interleaving.
	rngs := make([]*xrand.Rand, trials)
	for i, seed := range Seeds(trials, baseSeed) {
		rngs[i] = xrand.New(seed)
	}
	if workers == 1 {
		ctx := newCtx()
		for i := 0; i < trials; i++ {
			out[i] = trial(rngs[i], ctx)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := newCtx()
			for i := range next {
				out[i] = trial(rngs[i], ctx)
			}
		}()
	}
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// RunLanes runs `trials` independent broadcasts of a uniform protocol on
// one fixed graph through the bit-parallel lane engine: 64 trials advance
// per edge pass, sharded into lane blocks across a GOMAXPROCS worker
// pool. Trial i measures the completion round under seed Seeds(trials,
// baseSeed)[i] — the repository-wide per-trial seed convention — with
// maxRounds+1 for trials that do not finish in budget, exactly exec.Time's
// sentinel.
//
// ok is false (and values nil) when the execution layer classifies a
// batch of p onto the scalar backend (no radio.UniformProtocol, or a
// non-uniform round within the budget); callers fall back to
// Run/RunWith with the scalar engine. Lane purity makes each value a
// function of its trial seed alone, so results are bitwise independent
// of lane width, block sharding, worker count and GOMAXPROCS — but the
// lane engine is a new randomness stream: values are distributionally
// identical to a scalar sweep of the same seeds, not bit-identical to
// one (the PR 3 stream policy).
//
// Cancellation is cooperative: once ctx is canceled the lane workers
// stop between rounds and RunLanes returns a non-nil error wrapping
// radio.ErrCanceled; values are nil then (partially advanced lane
// blocks are not loss-free the way scalar NaN-marking is).
func RunLanes(ctx context.Context, g *graph.Graph, src int32, p radio.Protocol, maxRounds, trials int, baseSeed uint64) (values []float64, ok bool, err error) {
	req := &exec.Request{Graph: g, Sources: []int32{src}, Protocol: p, MaxRounds: maxRounds}
	if exec.ClassifyBatch(req) != exec.BackendLanes {
		return nil, false, nil
	}
	if trials <= 0 {
		return []float64{}, true, nil
	}
	rounds := make([]int, trials)
	if _, err := exec.RunSeeds(ctx, req, Seeds(trials, baseSeed), rounds); err != nil {
		return nil, true, err
	}
	out := make([]float64, trials)
	for i, r := range rounds {
		out[i] = float64(r)
	}
	return out, true, nil
}
