package exec_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/xrand"
)

const (
	testN = 300
	testD = 8.0
)

func testGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(testN, gen.PForDegree(testN, testD), xrand.New(seed), 100)
	if !ok {
		t.Fatal("no connected test graph")
	}
	return g
}

func protoReq(g *graph.Graph) *exec.Request {
	return &exec.Request{
		Graph:     g,
		Sources:   []int32{0},
		Protocol:  core.NewDistributedProtocol(g.N(), testD),
		MaxRounds: core.MaxRoundsFor(g.N()),
	}
}

// directTime resets e and drives req's protocol on it directly, returning
// the completion round with Time's maxRounds+1 sentinel.
func directTime(e *radio.Engine, req *exec.Request, seed uint64) int {
	e.Reset()
	e.RunProtocol(context.Background(), req.Protocol, req.MaxRounds, xrand.New(seed))
	if !e.Done() {
		return req.MaxRounds + 1
	}
	return e.RoundCount()
}

func testSchedule(t testing.TB, g *graph.Graph) *radio.Schedule {
	t.Helper()
	sched, _, err := core.BuildCentralizedSchedule(g, 0, testD, core.DefaultCentralizedConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestClassify covers every classification branch: schedule replay,
// non-uniform protocol, lane-uniform protocol, and each scalar-only
// override that forces a lane-capable batch back to scalar.
func TestClassify(t *testing.T) {
	g := testGraph(t, 1)
	uniform := protoReq(g)
	if got := exec.Classify(uniform); got != exec.BackendScalar {
		t.Errorf("single uniform trial classified %v, want scalar (lanes are batch-only)", got)
	}
	if got := exec.ClassifyBatch(uniform); got != exec.BackendLanes {
		t.Errorf("uniform batch classified %v, want lanes", got)
	}

	sched := &exec.Request{Graph: g, Sources: []int32{0}, Schedule: testSchedule(t, g)}
	if got := exec.Classify(sched); got != exec.BackendSchedule {
		t.Errorf("schedule request classified %v, want schedule", got)
	}
	if got := exec.ClassifyBatch(sched); got != exec.BackendSchedule {
		t.Errorf("schedule batch classified %v, want schedule", got)
	}

	nonUniform := protoReq(g)
	nonUniform.Protocol = &protocols.RoundRobin{N: g.N()}
	if got := exec.ClassifyBatch(nonUniform); got != exec.BackendScalar {
		t.Errorf("non-uniform batch classified %v, want scalar", got)
	}

	for name, mutate := range map[string]func(*exec.Request){
		"per-node": func(r *exec.Request) { r.PerNode = true },
		"observer": func(r *exec.Request) { r.Observer = &trace.Counters{} },
		"engine":   func(r *exec.Request) { r.Engine = radio.NewEngine(g, 0, radio.StrictInformed) },
	} {
		req := protoReq(g)
		mutate(req)
		if got := exec.ClassifyBatch(req); got != exec.BackendScalar {
			t.Errorf("%s batch classified %v, want scalar", name, got)
		}
	}
}

// TestRunMatchesEngine: exec.Run is bit-identical to driving the scalar
// engine directly with the same rng — the facade rewire changes nothing.
func TestRunMatchesEngine(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 2)
	req := protoReq(g)

	e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
	if err := e.RunProtocol(context.Background(), req.Protocol, req.MaxRounds, xrand.New(5)); err != nil {
		t.Fatal(err)
	}
	want := e.Result()

	got, err := x.Run(context.Background(), req, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Completed != want.Completed || got.Informed != want.Informed {
		t.Errorf("exec.Run = %+v, direct engine = %+v", got, want)
	}
	st := x.Snapshot()
	if st.Scalar.Runs != 1 || st.Scalar.Trials != 1 {
		t.Errorf("scalar counters = %+v, want runs=1 trials=1", st.Scalar)
	}
}

// TestRunSchedule: schedule requests replay deterministically through
// the schedule backend and count there — on a fresh, a pooled or a
// caller-owned engine alike.
func TestRunSchedule(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 3)
	sched := testSchedule(t, g)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	if err := e.ExecuteSchedule(context.Background(), sched); err != nil {
		t.Fatal(err)
	}
	want := e.Result()
	for _, req := range []*exec.Request{
		{Graph: g, Sources: []int32{0}, Schedule: sched},
		{Graph: g, Sources: []int32{0}, Schedule: sched, Pool: true},
		{Graph: g, Sources: []int32{0}, Schedule: sched, Pool: true},
		{Graph: g, Sources: []int32{0}, Schedule: sched, Engine: e},
	} {
		got, err := x.Run(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || got.Completed != want.Completed || got.Stats != want.Stats {
			t.Errorf("exec schedule replay (pool %v, engine %v) = %+v, direct = %+v", req.Pool, req.Engine != nil, got, want)
		}
		for v := range want.InformedAt {
			if got.InformedAt[v] != want.InformedAt[v] {
				t.Fatalf("InformedAt[%d] = %d, direct %d", v, got.InformedAt[v], want.InformedAt[v])
			}
		}
	}
	st := x.Snapshot()
	if st.Schedule.Runs != 4 || st.Scalar.Runs != 0 {
		t.Errorf("counters = %+v, want every run on the schedule backend", st)
	}
	if st.Scalar.PoolMisses != 1 || st.Scalar.PoolHits != 1 {
		t.Errorf("pool counters = %+v, want one miss then one hit", st.Scalar)
	}
}

// TestRunScheduleMismatch: a schedule that breaks the radio model is an
// error wrapping radio.ErrScheduleMismatch with a zero Result, and the
// pooled engine it ran on replays the next schedule correctly.
func TestRunScheduleMismatch(t *testing.T) {
	x := exec.New()
	g := gen.Path(4)
	bad := &radio.Schedule{Sets: [][]int32{{0}, {3}}}
	res, err := x.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: bad, Pool: true}, nil)
	if !errors.Is(err, radio.ErrScheduleMismatch) || res.N != 0 {
		t.Fatalf("bad schedule: res %+v, err %v; want zero Result and ErrScheduleMismatch", res, err)
	}
	good := &radio.Schedule{Sets: [][]int32{{0}, {1}, {2}}}
	res, err = x.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: good, Pool: true}, nil)
	if err != nil || !res.Completed || res.Rounds != 3 {
		t.Fatalf("replay after a rejected schedule: %+v, %v", res, err)
	}
	if st := x.Snapshot(); st.Scalar.PoolHits != 1 {
		t.Errorf("pool hits = %d, want the rejected run's engine reused", st.Scalar.PoolHits)
	}
}

// TestTimeSentinel: Time reports maxRounds+1 for a broadcast that does
// not finish within its budget — also when canceled — and the completion
// round otherwise, on every scalar path.
func TestTimeSentinel(t *testing.T) {
	x := exec.New()
	g := gen.Path(6)
	never := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return false })
	always := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return true })
	req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: never, MaxRounds: 10}
	if got, err := x.Time(context.Background(), req, xrand.New(1)); err != nil || got != 11 {
		t.Errorf("Time(never) = %d, %v; want 11", got, err)
	}
	if got, err := x.Open(req).Time(context.Background(), xrand.New(1)); err != nil || got != 11 {
		t.Errorf("Session.Time(never) = %d, %v; want 11", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := x.Time(ctx, req, xrand.New(1)); !errors.Is(err, radio.ErrCanceled) || got != 11 {
		t.Errorf("canceled Time = %d, %v; want 11 and ErrCanceled", got, err)
	}
	req.Protocol = always
	if got, err := x.Time(context.Background(), req, xrand.New(1)); err != nil || got != 5 {
		t.Errorf("Time(always) = %d, %v; want 5", got, err)
	}
}

// TestRunSeedsLanes: a lane-classified batch matches lanes.RunBlocks
// bit for bit and counts on the lane backend.
func TestRunSeedsLanes(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 4)
	req := protoReq(g)
	seeds := sweep.Seeds(100, 11)

	plan, ok := lanes.NewPlan(req.Protocol, req.MaxRounds)
	if !ok {
		t.Fatal("distributed protocol must be lane-capable")
	}
	want := make([]int, len(seeds))
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 0, 0, want); err != nil {
		t.Fatal(err)
	}

	got := make([]int, len(seeds))
	backend, err := x.RunSeeds(context.Background(), req, seeds, got)
	if err != nil {
		t.Fatal(err)
	}
	if backend != exec.BackendLanes {
		t.Fatalf("backend = %v, want lanes", backend)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: exec %d vs direct lanes %d", i, got[i], want[i])
		}
	}
	st := x.Snapshot()
	if st.Lanes.Runs != 1 || st.Lanes.Trials != int64(len(seeds)) || st.Lanes.Fallbacks != 0 {
		t.Errorf("lane counters = %+v, want runs=1 trials=%d", st.Lanes, len(seeds))
	}
}

// TestRunSeedsFallback: a non-uniform protocol batch falls back to
// per-seed scalar trials — bit-identical to running each seed on a
// fresh engine — and records the fallback.
func TestRunSeedsFallback(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 5)
	req := protoReq(g)
	req.Protocol = &protocols.RoundRobin{N: g.N()}
	req.MaxRounds = 4 * g.N()
	seeds := sweep.Seeds(9, 13)

	got := make([]int, len(seeds))
	backend, err := x.RunSeeds(context.Background(), req, seeds, got)
	if err != nil {
		t.Fatal(err)
	}
	if backend != exec.BackendScalar {
		t.Fatalf("backend = %v, want scalar fallback", backend)
	}
	e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
	for i, seed := range seeds {
		if want := directTime(e, req, seed); got[i] != want {
			t.Fatalf("trial %d: exec %d vs direct scalar %d", i, got[i], want)
		}
	}
	st := x.Snapshot()
	if st.Scalar.Fallbacks != 1 || st.Scalar.Trials != int64(len(seeds)) {
		t.Errorf("scalar counters = %+v, want fallbacks=1 trials=%d", st.Scalar, len(seeds))
	}
}

// TestCancelMidRun: a canceled context stops every dispatch path with
// an error wrapping radio.ErrCanceled.
func TestCancelMidRun(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := x.Run(ctx, protoReq(g), xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Run under canceled ctx: err = %v, want ErrCanceled", err)
	}
	if _, err := x.Time(ctx, protoReq(g), xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Time under canceled ctx: err = %v, want ErrCanceled", err)
	}
	seeds := sweep.Seeds(64, 1)
	out := make([]int, len(seeds))
	if _, err := x.RunSeeds(ctx, protoReq(g), seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("lane RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
	scalarReq := protoReq(g)
	scalarReq.Protocol = &protocols.RoundRobin{N: g.N()}
	if _, err := x.RunSeeds(ctx, scalarReq, seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("scalar RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
	sess := x.Open(protoReq(g))
	if _, err := sess.Time(ctx, xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Session.Time under canceled ctx: err = %v, want ErrCanceled", err)
	}
	if err := sess.RunSeeds(ctx, seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Session.RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestSessionTime: session trials reuse one engine and stay
// bit-identical to fresh-engine trials of the same rng streams.
func TestSessionTime(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 7)
	req := protoReq(g)
	sess := x.Open(req)
	for trial := 0; trial < 5; trial++ {
		seed := uint64(trial + 1)
		got, err := sess.Time(context.Background(), xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
		if want := directTime(e, req, seed); got != want {
			t.Fatalf("trial %d: session %d vs fresh engine %d", trial, got, want)
		}
	}
}

// TestSessionRunSeeds: session batches run the lazily built lane engine
// and match the one-shot lane dispatch for the same seeds, across
// multiple blocks.
func TestSessionRunSeeds(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 8)
	req := protoReq(g)
	sess := x.Open(req)
	if sess.Backend() != exec.BackendLanes {
		t.Fatalf("session backend = %v, want lanes", sess.Backend())
	}
	seeds := sweep.Seeds(3*exec.Width/2, 17) // forces >1 lane block
	got := make([]int, len(seeds))
	if err := sess.RunSeeds(context.Background(), seeds, got); err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: session %d vs one-shot %d (lane purity violated)", i, got[i], want[i])
		}
	}
}

// TestSessionScalarFallback: a session whose protocol is not
// lane-capable serves RunSeeds from its scalar engine, identical to
// per-seed Time dispatch.
func TestSessionScalarFallback(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 9)
	req := protoReq(g)
	req.Protocol = &protocols.RoundRobin{N: g.N()}
	req.MaxRounds = 4 * g.N()
	sess := x.Open(req)
	if sess.Backend() != exec.BackendScalar {
		t.Fatalf("session backend = %v, want scalar", sess.Backend())
	}
	seeds := sweep.Seeds(7, 23)
	got := make([]int, len(seeds))
	if err := sess.RunSeeds(context.Background(), seeds, got); err != nil {
		t.Fatal(err)
	}
	ref := x.Open(req)
	for i, seed := range seeds {
		want, err := ref.Time(context.Background(), xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("trial %d: batch fallback %d vs per-trial %d", i, got[i], want)
		}
	}
	if st := x.Snapshot(); st.Scalar.Fallbacks != 1 {
		t.Errorf("scalar fallbacks = %d, want 1", st.Scalar.Fallbacks)
	}
}

// TestEnginePool: acquire/release round-trips hit the per-graph pool,
// Forget and pointer identity keep rebuilt graphs off stale engines,
// and the counters record it all.
func TestEnginePool(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 10)

	e1 := x.AcquireEngine(g)
	x.ReleaseEngine(e1)
	e2 := x.AcquireEngine(g)
	if e1 != e2 {
		t.Error("second acquire must reuse the released engine")
	}
	x.ReleaseEngine(e2)

	// A structurally identical rebuild is a different pointer: miss.
	g2 := testGraph(t, 10)
	if got := x.AcquireEngine(g2); got == e1 {
		t.Error("rebuilt graph must not receive the old graph's engine")
	}

	x.Forget(g)
	if got := x.AcquireEngine(g); got == e1 {
		t.Error("acquire after Forget must build fresh")
	}

	st := x.Snapshot()
	if st.Scalar.PoolHits != 1 {
		t.Errorf("pool_hits = %d, want 1", st.Scalar.PoolHits)
	}
	if st.Scalar.PoolMisses != 3 {
		t.Errorf("pool_misses = %d, want 3", st.Scalar.PoolMisses)
	}
}

// TestRunPooled: a Pool-flagged run checks an engine out and back in,
// and a pooled rerun of the same request is bit-identical to the
// fresh-engine first run (SetSources fully resets).
func TestRunPooled(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 11)
	req := protoReq(g)
	req.Pool = true
	var rounds [2]int
	for i := range rounds {
		res, err := x.Run(context.Background(), req, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = res.Rounds
	}
	if rounds[0] != rounds[1] {
		t.Errorf("pooled rerun diverged: %d vs %d rounds", rounds[0], rounds[1])
	}
	st := x.Snapshot()
	if st.Scalar.PoolMisses != 1 || st.Scalar.PoolHits != 1 {
		t.Errorf("pool counters = %+v, want one miss then one hit", st.Scalar)
	}
}

// TestBadSourcesAreErrors: an empty or out-of-range source list is an
// error wrapping radio.ErrNoSuchSource from every entry point — never a
// panic, in particular not on a lane worker goroutine where no caller
// could recover it.
func TestBadSourcesAreErrors(t *testing.T) {
	x := exec.New()
	g := gen.Gnp(200, 6.0/200, xrand.New(3))
	p := core.NewDistributedProtocol(200, 6)
	seeds := sweep.Seeds(128, 1)
	out := make([]int, len(seeds))
	for _, sources := range [][]int32{nil, {500}, {0, 200}, {-1}} {
		req := &exec.Request{Graph: g, Sources: sources, Protocol: p, MaxRounds: core.MaxRoundsFor(200)}
		if _, err := x.RunSeeds(context.Background(), req, seeds, out); !errors.Is(err, radio.ErrNoSuchSource) {
			t.Errorf("RunSeeds(sources %v): err = %v, want ErrNoSuchSource", sources, err)
		}
		scalar := *req
		scalar.Protocol = &protocols.RoundRobin{N: g.N()}
		if _, err := x.RunSeeds(context.Background(), &scalar, seeds, out); !errors.Is(err, radio.ErrNoSuchSource) {
			t.Errorf("scalar RunSeeds(sources %v): err = %v, want ErrNoSuchSource", sources, err)
		}
		if _, err := x.Run(context.Background(), req, xrand.New(1)); !errors.Is(err, radio.ErrNoSuchSource) {
			t.Errorf("Run(sources %v): err = %v, want ErrNoSuchSource", sources, err)
		}
		if _, err := x.Time(context.Background(), req, xrand.New(1)); !errors.Is(err, radio.ErrNoSuchSource) {
			t.Errorf("Time(sources %v): err = %v, want ErrNoSuchSource", sources, err)
		}
	}
	if _, _, err := sweep.RunLanes(context.Background(), g, 500, p, core.MaxRoundsFor(200), len(seeds), 1); !errors.Is(err, radio.ErrNoSuchSource) {
		t.Errorf("sweep.RunLanes(source 500): err = %v, want ErrNoSuchSource", err)
	}
	if st := x.Snapshot(); st.Lanes.Runs != 0 || st.Scalar.Runs != 0 {
		t.Errorf("rejected requests were counted as runs: %+v", st)
	}
}

// TestLanePool: one-shot lane batches check their engines out of the
// executor's free list — a miss per worker the first time, a hit per
// worker afterwards, also for a smaller graph — and reruns stay
// bit-identical to the first, fresh-engine run.
func TestLanePool(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 12)
	seeds := sweep.Seeds(exec.Width, 31)
	_, workers := lanes.Shard(len(seeds), 0, 0)

	first := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, first); err != nil {
		t.Fatal(err)
	}
	if st := x.Snapshot().Lanes; st.PoolMisses != int64(workers) || st.PoolHits != 0 {
		t.Fatalf("first batch: lane pool counters %+v, want %d misses", st, workers)
	}
	if idle := x.IdleLaneEngines(); idle != workers {
		t.Fatalf("idle lane engines = %d after a clean batch, want %d", idle, workers)
	}
	again := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, again); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("trial %d: pooled rerun %d, fresh run %d", i, again[i], first[i])
		}
	}
	small, _, ok := gen.ConnectedGnp(100, gen.PForDegree(100, testD), xrand.New(13), 100)
	if !ok {
		t.Fatal("no connected test graph")
	}
	if _, err := x.RunSeeds(context.Background(), protoReq(small), seeds, again); err != nil {
		t.Fatal(err)
	}
	if st := x.Snapshot().Lanes; st.PoolMisses != int64(workers) || st.PoolHits != int64(2*workers) {
		t.Errorf("lane pool counters %+v, want %d misses and %d hits", st, workers, 2*workers)
	}
}

// TestLanePoolDropsCanceledEngines: a canceled lane batch abandons the
// engines it checked out instead of returning them to the free list.
func TestLanePoolDropsCanceledEngines(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 14)
	seeds := sweep.Seeds(exec.Width, 37)
	out := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, out); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.RunSeeds(ctx, protoReq(g), seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Fatalf("canceled batch: err = %v, want ErrCanceled", err)
	}
	if idle := x.IdleLaneEngines(); idle != 0 {
		t.Errorf("idle lane engines = %d after a canceled batch, want 0", idle)
	}
}

// TestConcurrentRunSeeds: concurrent lane batches on one graph share the
// executor's free list safely (run it under -race) and each still
// matches a fresh-engine reference; the free list stays bounded.
func TestConcurrentRunSeeds(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 15)
	seeds := sweep.Seeds(100, 41)
	want := make([]int, len(seeds))
	plan, _ := lanes.NewPlan(protoReq(g).Protocol, protoReq(g).MaxRounds)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, exec.Width, 1, want); err != nil {
		t.Fatal(err)
	}
	const callers = 6
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				got := make([]int, len(seeds))
				if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, got); err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("trial %d: concurrent batch %d, reference %d", i, got[i], want[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if idle, limit := x.IdleLaneEngines(), runtime.GOMAXPROCS(0); idle > limit {
		t.Errorf("idle lane engines = %d, above GOMAXPROCS = %d", idle, limit)
	}
}
