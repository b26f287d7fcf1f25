package radio_test

// The "for any u ∈ V" source sweep (experiment E18) runs on radio engines
// through the execution layer; these black-box tests sit next to the
// engine's multi-source tests.

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// TestSourceSweep: one completion round per requested source, each within
// the budget on a connected graph; k is clamped to [0, n].
func TestSourceSweep(t *testing.T) {
	const n = 500
	d := 2 * math.Log(n)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(2), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	rng := xrand.New(3)
	times := exec.SourceSweep(g, 10, p, 5000, rng)
	if len(times) != 10 {
		t.Fatalf("sweep returned %d times", len(times))
	}
	for _, tt := range times {
		if tt <= 0 || tt > 5000 {
			t.Fatalf("completion time %d out of range", tt)
		}
	}
	// k > n clamps to n, k < 0 to 0.
	if times = exec.SourceSweep(gen.Complete(5), 100, p, 100, rng); len(times) != 5 {
		t.Fatalf("clamped sweep returned %d", len(times))
	}
	if times = exec.SourceSweep(gen.Complete(5), -3, p, 100, rng); len(times) != 0 {
		t.Fatalf("negative-k sweep returned %d", len(times))
	}
}

// TestSourceSweepDeterministic: a sweep is a pure function of its rng,
// and source i's round equals a fresh-engine trial from that source on
// rng.Derive(i+1).
func TestSourceSweepDeterministic(t *testing.T) {
	g := gen.Complete(20)
	p := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		return r.Bernoulli(0.2)
	})
	a := exec.SourceSweep(g, 5, p, 500, xrand.New(7))
	b := exec.SourceSweep(g, 5, p, 500, xrand.New(7))
	rng := xrand.New(7)
	sources := rng.Sample(20, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sweep not deterministic")
		}
		req := &exec.Request{Graph: g, Sources: sources[i : i+1], Protocol: p, MaxRounds: 500}
		if want, _ := exec.Time(context.Background(), req, rng.Derive(uint64(i)+1)); a[i] != want {
			t.Fatalf("source %d: sweep %d, fresh engine %d", sources[i], a[i], want)
		}
	}
}
