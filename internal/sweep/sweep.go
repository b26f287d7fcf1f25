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

// Seeds returns the per-trial seeds that Run derives from baseSeed:
// trial i uses xrand.New(baseSeed).DeriveSeed(i+1). The mapping is the
// repository-wide convention for fanning one base seed out to
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
// concurrently on up to GOMAXPROCS goroutines; each draws only from its
// own derived rng, so the measurements do not depend on scheduling.
func Run(trials int, baseSeed uint64, trial Trial) []float64 {
	seeds := Seeds(trials, baseSeed)
	out := make([]float64, len(seeds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := min(runtime.GOMAXPROCS(0), len(seeds)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = trial(xrand.New(seeds[i]))
			}
		}()
	}
	for i := range seeds {
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
// Run with the scalar engine. Lane purity makes each value a
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
