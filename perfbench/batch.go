package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lower"
	"repro/internal/xrand"
)

const (
	batchTrials = 64
	batchD      = 25
)

// batchW is the one-shot lane path: repro.RunBatch calls of 64 trials on
// graphs pre-built in set-up, at two sizes (CSR inside and outside the
// per-core L2) and with two protocols — the paper's distributed protocol,
// which runs on lanes, and an oblivious lower.SequenceProtocol, which
// falls back to scalar trials. One operation is a cycle of the four
// calls; cycle c uses seeds derived from (seed, c). Set-up builds the
// graphs and runs cycle 0 as warm-up; the timed window starts over at
// cycle 0, which must repeat the warm-up output exactly.
type batchW struct {
	cfg    config
	calls  []batchCall
	ref    [][]int // warm-up outputs of cycle 0
	first  [][]int // timed outputs of cycle 0
	cycles int
	late   int // trials that did not complete within the budget
}

type batchCall struct {
	name  string
	g     *repro.Graph
	proto repro.Protocol // nil: the paper's distributed protocol (WithDegree)
}

func newBatch(cfg config) workload { return &batchW{cfg: cfg} }

func batchSizes(short bool) []int {
	if short {
		return []int{1000, 3000}
	}
	return []int{10_000, 100_000}
}

// floodThenSelect is the oblivious sequence "transmit twice, then with
// probability 1/d" over 4·⌈log2(n+2)⌉ rounds, one of the candidates
// lower.OptimizeSequence searches. It declares no uniform schedule, so
// RunBatch runs it as scalar trials.
func floodThenSelect(n int, d float64) *lower.SequenceProtocol {
	q := make([]float64, 4*int(math.Ceil(math.Log2(float64(n)+2))))
	for i := range q {
		q[i] = 1 / d
	}
	q[0], q[1] = 1, 1
	return &lower.SequenceProtocol{Q: q}
}

func (b *batchW) setup() error {
	b.calls = b.calls[:0]
	parent := xrand.New(b.cfg.seed)
	for i, n := range batchSizes(b.cfg.short) {
		g, ok := repro.ConnectedGnpDegree(n, batchD, repro.NewRand(parent.DeriveSeed(uint64(i)+1)))
		if !ok {
			return fmt.Errorf("no connected G(n=%d, d=%d)", n, batchD)
		}
		b.calls = append(b.calls,
			batchCall{fmt.Sprintf("distributed n=%d", n), g, nil},
			batchCall{fmt.Sprintf("sequence n=%d", n), g, floodThenSelect(n, batchD)})
	}
	out, err := b.cycle(0)
	b.ref = out
	return err
}

func (b *batchW) seed(cycle, call int) uint64 {
	return xrand.New(b.cfg.seed).Derive(uint64(cycle) + 1).DeriveSeed(uint64(call) + 1)
}

func (b *batchW) cycle(c int) ([][]int, error) {
	outs := make([][]int, len(b.calls))
	for i, call := range b.calls {
		opts := []repro.Option{repro.WithSeed(b.seed(c, i))}
		if call.proto != nil {
			opts = append(opts, repro.WithProtocol(call.proto))
		} else {
			opts = append(opts, repro.WithDegree(batchD))
		}
		out, err := repro.RunBatch(call.g, 0, batchTrials, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", call.name, err)
		}
		outs[i] = out
	}
	return outs, nil
}

func (b *batchW) countLate(outs [][]int) int {
	late := 0
	for i, out := range outs {
		budget := core.MaxRoundsFor(b.calls[i].g.N())
		for _, r := range out {
			if r > budget {
				late++
			}
		}
	}
	return late
}

func (b *batchW) measure(window time.Duration) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < window; c++ {
		t0 := time.Now()
		outs, err := b.cycle(c)
		if err != nil {
			return nil, err
		}
		m.opMs = append(m.opMs, msSince(t0))
		if c == 0 {
			b.first = outs
		}
		late := b.countLate(outs)
		b.late += late
		trials := len(b.calls) * batchTrials
		m.work += float64(trials - late)
		m.attempted += trials
		m.failed += late
		b.cycles++
	}
	m.wall = time.Since(start)
	m.named = []namedValue{{"trials_per_s", m.work / m.wall.Seconds(), "1/s",
		fmt.Sprintf("%d cycles of %d RunBatch calls × %d trials, GOMAXPROCS=%d", b.cycles, len(b.calls), batchTrials, nproc)}}
	for i := 0; i < len(b.calls); i += 2 {
		g := b.calls[i].g
		m.named = append(m.named, namedValue{fmt.Sprintf("csr_bytes_n%d", g.N()), float64(csrBytes(g)), "B",
			"L2 4 MiB per core, L3 300 MiB shared on the reference box"})
	}
	return m, nil
}

func (b *batchW) check() error {
	if b.late > 0 {
		return fmt.Errorf("%d trials did not complete within the round budget", b.late)
	}
	for i := range b.ref {
		if !slices.Equal(b.ref[i], b.first[i]) {
			return fmt.Errorf("%s: repeating cycle 0 changed its output: %w", b.calls[i].name, errMismatch)
		}
	}
	return nil
}

// traced repeats cycle 0 untraced through RunBatch, then traced through
// the entry RunBatch dispatches to, exec.RunSeeds, with the same request
// and trial seeds; the outputs must match the warm-up's, whose trials
// must all complete within the round budget. Each call's span is
// attributed to the backend exec reports.
func (b *batchW) traced(tr *tracer, m metrics) error {
	if late := b.countLate(b.ref); late > 0 {
		return fmt.Errorf("%d trials did not complete within the round budget", late)
	}
	var before, after exec.Stats
	overhead, err := tracingOverhead(tr, func() error {
		_, err := b.cycle(0)
		return err
	}, func() error {
		before = exec.Snapshot()
		defer func() { after = exec.Snapshot() }()
		return b.tracedCycle(tr)
	})
	if err != nil {
		return err
	}
	fillExecMetrics(before, after, m)
	fillEngineMetrics(tr, m)
	m.set("tracer.overhead_s", overhead)
	return nil
}

// tracedCycle replays cycle 0 through exec.RunSeeds.
func (b *batchW) tracedCycle(tr *tracer) error {
	for i, call := range b.calls {
		tr.nextOp()
		n := call.g.N()
		p := call.proto
		if p == nil {
			p = core.NewDistributedProtocol(n, batchD)
		}
		req := &exec.Request{Graph: call.g, Sources: []int32{0}, Protocol: p, MaxRounds: core.MaxRoundsFor(n)}
		out := make([]int, batchTrials)
		var err error
		tr.engine(batchTrials, func() string {
			var backend exec.Backend
			backend, err = exec.RunSeeds(context.Background(), req, trialSeeds(batchTrials, b.seed(0, i)), out)
			if backend == exec.BackendLanes {
				return "lanes"
			}
			return "radio"
		})
		if err != nil {
			return err
		}
		if !slices.Equal(out, b.ref[i]) {
			return fmt.Errorf("%s: exec.RunSeeds replay differs from RunBatch: %w", call.name, errMismatch)
		}
	}
	return nil
}

func (b *batchW) close() {}
