// Package exec is the unified execution layer: one place that picks a
// simulation backend, owns engine lifecycle and reuse, turns a driven
// engine into a Result or a completion round, and counts what ran.
// Every consumer — the root facade (Run/RunBatch), internal/sweep, the
// experiments, the campaign runners, the serving layer and the CLIs —
// dispatches through an Executor instead of constructing radio or lane
// engines itself, so backend selection, fallback and pooling have
// exactly one implementation and one metrics surface, and a new backend
// (e.g. a collision-detection feedback engine) plugs in here once.
//
// Classification:
//
//	schedule replay            → BackendSchedule (deterministic, no rng)
//	single trial / observer /
//	per-node / non-uniform     → BackendScalar (sampled fast path unless
//	                             PerNode; the engine decides per round)
//	trial batch of a protocol
//	with a fully uniform
//	schedule                   → BackendLanes (64 trials per word), with
//	                             scalar fallback otherwise
//
// The PR 3 stream policy is preserved exactly: single trials run the
// scalar engine's sampled stream, batches run the lane engine's stream
// (distributionally identical, not bit-identical), and each trial is a
// pure function of its own derived seed, so dispatch through exec is
// byte-identical to the per-layer code it replaced.
//
// Engine lifecycle: scalar engines are pooled per graph (a bounded LRU
// keyed by graph pointer); lane engines live in one graph-agnostic free
// list of at most GOMAXPROCS detached engines, re-targeted on checkout.
// A one-shot lane batch (RunSeeds) runs balanced blocks on every core
// (lanes.Shard), one pooled engine per worker, so it neither idles CPUs
// nor allocates engine state in steady state. Engines return to either
// pool only on clean completion. Sessions own their engines outright.
// Every entry point rejects an empty or out-of-range source list with an
// error wrapping radio.ErrNoSuchSource before any engine is built.
package exec

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Width is the lane-block width: batch dispatchers that block trials
// (the campaign runner) size their blocks to it.
const Width = lanes.Width

// Backend identifies which simulation engine executed a request.
type Backend int

const (
	// BackendScalar is the per-node/sampled scalar engine.
	BackendScalar Backend = iota
	// BackendSchedule is deterministic schedule replay (no rng).
	BackendSchedule
	// BackendLanes is the bit-parallel lane engine (batches only).
	BackendLanes
	numBackends
)

func (b Backend) String() string {
	switch b {
	case BackendScalar:
		return "scalar"
	case BackendSchedule:
		return "schedule"
	case BackendLanes:
		return "lanes"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Request describes one simulation configuration: what to run and on
// what engine state. The zero value of every optional field selects the
// default behaviour.
type Request struct {
	Graph   *graph.Graph
	Sources []int32

	// Protocol drives randomized runs; Schedule, when non-nil, replays a
	// centralized schedule instead (Protocol, MaxRounds, PerNode and rng
	// do not apply).
	Protocol  radio.Protocol
	Schedule  *radio.Schedule
	MaxRounds int

	// PerNode opts out of the sampled-transmitter fast path (the
	// WithPerNodeSampling stream). Per-node sampling is a single-trial
	// notion: it forces the scalar backend for batches.
	PerNode bool

	// Observer receives round-level trace callbacks. Observers are
	// scalar per-trial notions: a non-nil observer forces the scalar
	// backend for batches.
	Observer trace.Observer

	// Engine, when non-nil, runs the request — protocol trial or
	// schedule replay — on this caller-owned engine (the facade
	// WithEngine and *On paths): its sources, observer and sampling mode
	// are re-initialised from the request, so a run is bit-identical to a
	// fresh-engine run. The engine's own TransmitterPolicy applies to
	// replays and its SetResultReuse setting to Results. The caller keeps
	// ownership; exec never pools it.
	Engine *radio.Engine

	// Pool checks a scalar engine out of the executor's per-graph pool
	// for the run (protocol or schedule) and back in afterwards — the
	// serving layer's steady-state path. Ignored when Engine is set.
	Pool bool
}

// BackendStats are one backend's cumulative counters.
type BackendStats struct {
	// Runs counts dispatches (one per single trial, one per batch);
	// Trials counts individual trials, so for batches Trials advances by
	// the batch size per run.
	Runs   int64 `json:"runs"`
	Trials int64 `json:"trials"`
	// Fallbacks counts batch dispatches that wanted the lane engine but
	// ran scalar (non-uniform protocol, observer, per-node, caller engine).
	Fallbacks int64 `json:"fallbacks"`
	// PoolHits/PoolMisses count pooled-engine checkouts served from the
	// pool (per graph for scalar engines, the graph-agnostic free list
	// for lane engines, one checkout per lane worker) vs. built fresh.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
}

// Stats is the executor's counter snapshot, one section per backend —
// the single metrics surface serve and cluster workers expose.
type Stats struct {
	Scalar   BackendStats `json:"scalar"`
	Schedule BackendStats `json:"schedule"`
	Lanes    BackendStats `json:"lanes"`
}

// counters is the hot mutable twin of BackendStats.
type counters struct {
	runs, trials, fallbacks, poolHits, poolMisses atomic.Int64
}

func (c *counters) snapshot() BackendStats {
	return BackendStats{
		Runs:       c.runs.Load(),
		Trials:     c.trials.Load(),
		Fallbacks:  c.fallbacks.Load(),
		PoolHits:   c.poolHits.Load(),
		PoolMisses: c.poolMisses.Load(),
	}
}

// poolEntry holds the idle engines pooled for one graph instance.
// Engines are keyed by graph pointer, never by structural value: an
// engine must not run on a different graph than it was built for, even
// a bit-identical rebuild, so a rebuilt graph always misses.
type poolEntry struct {
	g    *graph.Graph
	idle []*radio.Engine
}

// Executor classifies requests onto backends, pools scalar engines per
// graph and lane engines in one graph-agnostic free list, and counts
// every dispatch. The zero value is not ready; use New (isolated, e.g.
// for tests) or Default (the process-wide instance every layer shares).
type Executor struct {
	graphCap  int // max graphs with pooled engines (LRU beyond)
	engineCap int // max idle engines kept per graph

	mu      sync.Mutex
	entries map[*graph.Graph]*list.Element
	order   *list.List // front = most recently used

	// laneIdle is the lane-engine free list: detached engines (no graph,
	// sources or plan referenced) that any batch on a graph of at most
	// their vertex capacity can check out. At most GOMAXPROCS are kept —
	// lane engines are tens of MB at n = 1e5, so they are bounded in
	// total, not per graph. Guarded by mu.
	laneIdle []*lanes.Engine

	c [numBackends]counters
}

const (
	defaultGraphCap  = 64
	defaultEngineCap = 16
)

// New returns an isolated executor with default pool bounds.
func New() *Executor {
	return &Executor{
		graphCap:  defaultGraphCap,
		engineCap: defaultEngineCap,
		entries:   make(map[*graph.Graph]*list.Element),
		order:     list.New(),
	}
}

var std = New()

// Default returns the process-wide executor. The facade, sweep, the
// campaign runner and the serving layer all dispatch through it, so its
// Snapshot is the one metrics surface for everything that ran.
func Default() *Executor { return std }

// Classify reports the backend a single-trial request executes on.
// Single trials never use lanes (the lane engine is a different
// randomness stream and only pays off across a batch): a schedule
// replays, everything else runs the scalar engine.
func Classify(req *Request) Backend {
	if req.Schedule != nil {
		return BackendSchedule
	}
	return BackendScalar
}

// ClassifyBatch reports the backend a trial batch of req executes on:
// the lane engine when the protocol declares a fully uniform schedule
// over the round budget and nothing scalar-only (observer, per-node,
// caller engine) is requested; the scalar engine otherwise.
func ClassifyBatch(req *Request) Backend {
	if req.Schedule != nil {
		return BackendSchedule
	}
	if _, ok := batchPlan(req); ok {
		return BackendLanes
	}
	return BackendScalar
}

// Run executes one trial of req and returns the full Result. Schedules
// replay deterministically (rng unused); protocols run the scalar
// engine with rng. Either runs on the engine checkout resolves (the
// caller's, a pooled or a fresh one). Cancellation is cooperative
// between rounds: a canceled ctx returns the partial Result and an
// error wrapping radio.ErrCanceled. A schedule that violates the radio
// model returns a zero Result and an error wrapping
// radio.ErrScheduleMismatch.
func (x *Executor) Run(ctx context.Context, req *Request, rng *xrand.Rand) (radio.Result, error) {
	if err := checkSources(req); err != nil {
		return radio.Result{}, err
	}
	b := Classify(req)
	x.c[b].runs.Add(1)
	x.c[b].trials.Add(1)
	e, pooled := x.checkout(req)
	var err error
	if req.Schedule != nil {
		err = e.ExecuteSchedule(ctx, req.Schedule)
	} else {
		err = e.RunProtocol(ctx, req.Protocol, req.MaxRounds, rng)
	}
	var res radio.Result
	if err == nil || errors.Is(err, radio.ErrCanceled) {
		res = e.Result()
	}
	if pooled {
		// Clean return only: a panicking trial abandons the engine to the
		// GC instead of pooling corrupt state. A rejected schedule round
		// leaves the engine unchanged, so it pools like any other.
		x.release(e)
	}
	return res, err
}

// Time executes one trial of a protocol request and returns only the
// completion round (maxRounds+1 if the broadcast did not finish) — the
// allocation-free twin of Run for measurement loops.
func (x *Executor) Time(ctx context.Context, req *Request, rng *xrand.Rand) (int, error) {
	if err := checkSources(req); err != nil {
		return 0, err
	}
	e, pooled := x.checkout(req)
	x.c[BackendScalar].runs.Add(1)
	x.c[BackendScalar].trials.Add(1)
	r, err := completion(ctx, e, req, rng)
	if pooled {
		x.release(e)
	}
	return r, err
}

// completion runs one protocol trial of req on e, which must be in its
// initial state (fresh from checkout, or Reset by a caller that reuses
// it), and returns the completion round, or maxRounds+1 if the broadcast
// did not finish — the sentinel that keeps incomplete runs visibly worse
// than any complete run when aggregating. A canceled run reports the
// sentinel too, alongside the error wrapping radio.ErrCanceled. It
// builds no Result, so a trial on a reused engine allocates nothing.
// Every timed scalar trial goes through here.
func completion(ctx context.Context, e *radio.Engine, req *Request, rng *xrand.Rand) (int, error) {
	err := e.RunProtocol(ctx, req.Protocol, req.MaxRounds, rng)
	if !e.Done() {
		return req.MaxRounds + 1, err
	}
	return e.RoundCount(), err
}

// SourceSweep runs p once from each of k sources drawn uniformly without
// replacement by rng and returns the per-source completion rounds
// (maxRounds+1 for incomplete runs) — the "for any u ∈ V" measurement of
// the paper's theorems (experiment E18). Source i's trial draws from
// rng.Derive(i+1). One engine serves every source. k is clamped to
// [0, n], so a negative k yields no sources.
func SourceSweep(g *graph.Graph, k int, p radio.Protocol, maxRounds int, rng *xrand.Rand) []int {
	k = max(0, min(k, g.N()))
	sources := rng.Sample(g.N(), k)
	out := make([]int, len(sources))
	if len(sources) == 0 {
		return out
	}
	req := &Request{Graph: g, Protocol: p, MaxRounds: maxRounds, Engine: radio.NewEngine(g, sources[0], radio.StrictInformed)}
	for i := range sources {
		req.Sources = sources[i : i+1]
		out[i], _ = Time(context.Background(), req, rng.Derive(uint64(i)+1))
	}
	return out
}

// RunSeeds executes one trial per seed, out[i] receiving seed i's
// completion round, and reports the backend that ran. Lane-classified
// batches run balanced lane blocks (lanes.Shard) on pooled lane engines,
// one per worker; everything else falls back to per-seed scalar trials
// on a private worker pool, one engine per worker. Either way trial i is
// a pure function of seeds[i]: results are bitwise independent of worker
// count, sharding and GOMAXPROCS. An empty or out-of-range source list
// is an error wrapping radio.ErrNoSuchSource. On cancellation the error
// wraps radio.ErrCanceled and out's unfinished entries are unspecified.
func (x *Executor) RunSeeds(ctx context.Context, req *Request, seeds []uint64, out []int) (Backend, error) {
	if req.Schedule != nil {
		return BackendSchedule, fmt.Errorf("exec: schedule replay is single-trial; RunSeeds takes protocols")
	}
	if len(seeds) != len(out) {
		return BackendScalar, fmt.Errorf("exec: %d seeds but %d result slots", len(seeds), len(out))
	}
	if err := checkSources(req); err != nil {
		return ClassifyBatch(req), err
	}
	if len(seeds) == 0 {
		return ClassifyBatch(req), nil
	}
	if plan, ok := batchPlan(req); ok {
		x.c[BackendLanes].runs.Add(1)
		x.c[BackendLanes].trials.Add(int64(len(seeds)))
		return BackendLanes, x.runLanes(ctx, req, plan, seeds, out)
	}
	x.c[BackendScalar].runs.Add(1)
	x.c[BackendScalar].trials.Add(int64(len(seeds)))
	x.c[BackendScalar].fallbacks.Add(1)
	return BackendScalar, x.runSeedsScalar(ctx, req, seeds, out)
}

// checkSources rejects a request whose source list is empty or names a
// vertex outside [0, n) — before any engine is built, so a bad source is
// an error on the caller's goroutine instead of a panic on a worker's.
func checkSources(req *Request) error {
	if len(req.Sources) == 0 {
		return fmt.Errorf("exec: %w: empty source list", radio.ErrNoSuchSource)
	}
	n := req.Graph.N()
	for _, s := range req.Sources {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("exec: %w: source %d outside [0,%d)", radio.ErrNoSuchSource, s, n)
		}
	}
	return nil
}

// runLanes runs a lane-classified batch: balanced blocks on pooled lane
// engines, one per worker. The engines go back to the free list only on
// clean completion — a canceled run (or a panicking one) abandons them
// to the GC, the same rule as for pooled scalar engines.
func (x *Executor) runLanes(ctx context.Context, req *Request, plan *lanes.Plan, seeds []uint64, out []int) error {
	width, workers := lanes.Shard(len(seeds), 0, 0)
	engines := x.acquireLanes(req, plan, workers)
	if err := lanes.RunBlocksOn(ctx, engines, seeds, width, out); err != nil {
		return err
	}
	x.releaseLanes(engines)
	return nil
}

// acquireLanes checks k lane engines out of the free list, each the
// smallest idle engine whose vertex capacity fits req.Graph, and builds
// the rest fresh; every engine comes back targeted at req.
func (x *Executor) acquireLanes(req *Request, plan *lanes.Plan, k int) []*lanes.Engine {
	n := req.Graph.N()
	engines := make([]*lanes.Engine, k)
	x.mu.Lock()
	for i := range engines {
		best := -1
		for j, e := range x.laneIdle {
			if e.Cap() >= n && (best < 0 || e.Cap() < x.laneIdle[best].Cap()) {
				best = j
			}
		}
		if best < 0 {
			break
		}
		engines[i] = x.takeIdle(best)
	}
	x.mu.Unlock()
	for i, e := range engines {
		if e == nil {
			x.c[BackendLanes].poolMisses.Add(1)
			engines[i] = lanes.NewEngine(req.Graph, req.Sources, plan)
			continue
		}
		x.c[BackendLanes].poolHits.Add(1)
		e.Retarget(req.Graph, req.Sources, plan)
	}
	return engines
}

// releaseLanes detaches engines and checks them into the free list,
// dropping the smallest-capacity idle engines beyond GOMAXPROCS.
func (x *Executor) releaseLanes(engines []*lanes.Engine) {
	for _, e := range engines {
		e.Detach()
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.laneIdle = append(x.laneIdle, engines...)
	for limit := runtime.GOMAXPROCS(0); len(x.laneIdle) > limit; {
		small := 0
		for j, e := range x.laneIdle {
			if e.Cap() < x.laneIdle[small].Cap() {
				small = j
			}
		}
		x.takeIdle(small)
	}
}

// takeIdle removes and returns idle lane engine j (order is irrelevant,
// so the last one fills its slot). The caller holds mu.
func (x *Executor) takeIdle(j int) *lanes.Engine {
	e := x.laneIdle[j]
	last := len(x.laneIdle) - 1
	x.laneIdle[j] = x.laneIdle[last]
	x.laneIdle[last] = nil
	x.laneIdle = x.laneIdle[:last]
	return e
}

// IdleLaneEngines reports how many lane engines the free list holds
// (at most GOMAXPROCS).
func (x *Executor) IdleLaneEngines() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.laneIdle)
}

// batchPlan returns the lane plan for a batch of req, if lanes are the
// classified backend.
func batchPlan(req *Request) (*lanes.Plan, bool) {
	if req.PerNode || req.Observer != nil || req.Engine != nil {
		return nil, false
	}
	return lanes.NewPlan(req.Protocol, req.MaxRounds)
}

// runSeedsScalar is RunSeeds' scalar fallback: per-seed trials fanned
// out to min(GOMAXPROCS, len(seeds)) workers, one engine per worker.
func (x *Executor) runSeedsScalar(ctx context.Context, req *Request, seeds []uint64, out []int) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := radio.NewEngineMulti(req.Graph, req.Sources, radio.StrictInformed)
			e.SetPerNodeSampling(req.PerNode)
			for i := range next {
				// A canceled trial leaves out[i] at the engine's partial
				// count; the ctx.Err() check below reports the batch failed.
				e.Reset()
				out[i], _ = completion(ctx, e, req, xrand.New(seeds[i]))
			}
		}()
	}
dispatch:
	for i := range seeds {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if ctx.Err() != nil {
		return radio.Canceled(ctx)
	}
	return nil
}

// checkout resolves the scalar engine a request runs on: the caller's
// own engine (re-initialised, stays theirs), a pooled one (returned by
// the caller via release on clean completion), or a fresh build.
func (x *Executor) checkout(req *Request) (e *radio.Engine, pooled bool) {
	switch {
	case req.Engine != nil:
		e = req.Engine
		e.SetSources(req.Sources)
	case req.Pool:
		e = x.AcquireEngine(req.Graph)
		e.SetSources(req.Sources)
		e.SetResultReuse(true)
		pooled = true
	default:
		e = radio.NewEngineMulti(req.Graph, req.Sources, radio.StrictInformed)
	}
	e.Attach(req.Observer)
	e.SetPerNodeSampling(req.PerNode)
	return e, pooled
}

// release detaches and checks a pooled engine back in.
func (x *Executor) release(e *radio.Engine) {
	e.Attach(nil)
	x.ReleaseEngine(e)
}

// AcquireEngine checks a scalar engine for g out of the per-graph pool,
// building one on a miss. Engines are handed out only for the exact
// graph pointer they were built on. Callers that route through the
// facade (repro.WithEngine) get sources/observer/sampling
// re-initialised there; others must SetSources themselves. Return the
// engine with ReleaseEngine when the run is over — or drop it on a
// panic, so corrupt state never re-enters the pool.
func (x *Executor) AcquireEngine(g *graph.Graph) *radio.Engine {
	x.mu.Lock()
	if el, ok := x.entries[g]; ok {
		x.order.MoveToFront(el)
		ent := el.Value.(*poolEntry)
		if n := len(ent.idle); n > 0 {
			e := ent.idle[n-1]
			ent.idle[n-1] = nil
			ent.idle = ent.idle[:n-1]
			x.mu.Unlock()
			x.c[BackendScalar].poolHits.Add(1)
			return e
		}
	}
	x.mu.Unlock()
	x.c[BackendScalar].poolMisses.Add(1)
	return radio.NewEngine(g, 0, radio.StrictInformed)
}

// ReleaseEngine returns an engine to its graph's pool, creating the
// pool entry on first release and evicting the least-recently-used
// graph's engines beyond the executor's graph bound. Engines beyond the
// per-graph bound are dropped for the GC.
func (x *Executor) ReleaseEngine(e *radio.Engine) {
	g := e.Graph()
	x.mu.Lock()
	defer x.mu.Unlock()
	el, ok := x.entries[g]
	if !ok {
		el = x.order.PushFront(&poolEntry{g: g})
		x.entries[g] = el
		for x.order.Len() > x.graphCap {
			oldest := x.order.Back()
			x.order.Remove(oldest)
			delete(x.entries, oldest.Value.(*poolEntry).g)
		}
	} else {
		x.order.MoveToFront(el)
	}
	ent := el.Value.(*poolEntry)
	if len(ent.idle) < x.engineCap {
		ent.idle = append(ent.idle, e)
	}
}

// Forget drops every engine pooled for g — the eviction hook for graph
// caches, keeping engine memory from outliving the graphs it serves.
// (Correctness never depends on it: a rebuilt graph is a new pointer
// and misses regardless.)
func (x *Executor) Forget(g *graph.Graph) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if el, ok := x.entries[g]; ok {
		x.order.Remove(el)
		delete(x.entries, g)
	}
}

// Snapshot returns the executor's cumulative counters.
func (x *Executor) Snapshot() Stats {
	return Stats{
		Scalar:   x.c[BackendScalar].snapshot(),
		Schedule: x.c[BackendSchedule].snapshot(),
		Lanes:    x.c[BackendLanes].snapshot(),
	}
}

// Session pins one request's engines across many trials — the campaign
// runner's per-(worker, point) reuse: the scalar engine is built once
// and reset per trial, the lane engine lazily on the first batched
// block. A Session is not safe for concurrent use; its trials remain
// pure functions of their rng/seed, so which session ran a trial never
// shows in the results. Sessions never use the executor's engine pool —
// their engines live for the session and are abandoned to the GC with
// it (Close is optional and only drops references).
type Session struct {
	x    *Executor
	req  Request
	plan *lanes.Plan // non-nil iff batches of req classify as lanes

	engine *radio.Engine // lazily built scalar engine
	lane   *lanes.Engine // lazily built lane engine
}

// Open prepares a session for req. The request is captured by value
// (sources copied), so later caller mutations don't leak in.
func (x *Executor) Open(req *Request) *Session {
	s := &Session{x: x, req: *req}
	s.req.Sources = append([]int32(nil), req.Sources...)
	s.req.Pool = false // session engines are owned, never pooled
	if s.req.Schedule == nil {
		s.plan, _ = batchPlan(&s.req)
	}
	return s
}

// Backend reports where batches of this session execute: BackendLanes
// when the plan probe succeeded, BackendScalar otherwise (single-trial
// Time calls are always scalar).
func (s *Session) Backend() Backend {
	if s.plan != nil {
		return BackendLanes
	}
	return Classify(&s.req)
}

// scalar returns the session's scalar engine, building it on first use.
func (s *Session) scalar() *radio.Engine {
	if s.engine == nil {
		s.engine, _ = s.x.checkout(&s.req) // Open cleared Pool: never pooled
	}
	return s.engine
}

// Time runs one trial on the session's scalar engine (reset first) and
// returns the completion round, maxRounds+1 if the broadcast did not
// finish. Uncanceled, it is bit-identical for a given rng no matter
// which session or worker runs it.
func (s *Session) Time(ctx context.Context, rng *xrand.Rand) (int, error) {
	e := s.scalar()
	s.x.c[BackendScalar].runs.Add(1)
	s.x.c[BackendScalar].trials.Add(1)
	e.Reset()
	return completion(ctx, e, &s.req, rng)
}

// RunSeeds runs one trial per seed through the session's batch backend:
// the lane engine (built lazily on the first call, then reused) in
// blocks of up to Width seeds, or — when the session classified scalar
// — per-seed trials on the session's scalar engine, identical to
// dispatching each seed through Time. out[i] receives seed i's
// completion round.
func (s *Session) RunSeeds(ctx context.Context, seeds []uint64, out []int) error {
	if len(seeds) != len(out) {
		return fmt.Errorf("exec: %d seeds but %d result slots", len(seeds), len(out))
	}
	if s.plan == nil {
		s.x.c[BackendScalar].runs.Add(1)
		s.x.c[BackendScalar].trials.Add(int64(len(seeds)))
		s.x.c[BackendScalar].fallbacks.Add(1)
		e := s.scalar()
		for i, seed := range seeds {
			e.Reset()
			r, err := completion(ctx, e, &s.req, xrand.New(seed))
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	}
	s.x.c[BackendLanes].runs.Add(1)
	s.x.c[BackendLanes].trials.Add(int64(len(seeds)))
	if s.lane == nil {
		s.lane = lanes.NewEngine(s.req.Graph, s.req.Sources, s.plan)
	}
	for len(seeds) > 0 {
		n := len(seeds)
		if n > Width {
			n = Width
		}
		if err := s.lane.RunContext(ctx, seeds[:n], out[:n]); err != nil {
			return err
		}
		seeds, out = seeds[n:], out[n:]
	}
	return nil
}

// Close drops the session's engine references. Optional: sessions own
// their engines outright, so the GC reclaims them either way.
func (s *Session) Close() {
	s.engine, s.lane = nil, nil
}

// Package-level conveniences dispatching through Default().

// Run executes one trial on the default executor; see Executor.Run.
func Run(ctx context.Context, req *Request, rng *xrand.Rand) (radio.Result, error) {
	return std.Run(ctx, req, rng)
}

// Time executes one timed trial on the default executor; see
// Executor.Time.
func Time(ctx context.Context, req *Request, rng *xrand.Rand) (int, error) {
	return std.Time(ctx, req, rng)
}

// RunSeeds executes a seed batch on the default executor; see
// Executor.RunSeeds.
func RunSeeds(ctx context.Context, req *Request, seeds []uint64, out []int) (Backend, error) {
	return std.RunSeeds(ctx, req, seeds, out)
}

// Open opens a session on the default executor; see Executor.Open.
func Open(req *Request) *Session { return std.Open(req) }

// AcquireEngine checks an engine out of the default executor's pool.
func AcquireEngine(g *graph.Graph) *radio.Engine { return std.AcquireEngine(g) }

// ReleaseEngine returns an engine to the default executor's pool.
func ReleaseEngine(e *radio.Engine) { std.ReleaseEngine(e) }

// Forget drops the default executor's pooled engines for g.
func Forget(g *graph.Graph) { std.Forget(g) }

// Snapshot returns the default executor's counters.
func Snapshot() Stats { return std.Snapshot() }

// IdleLaneEngines reports the default executor's idle lane engines.
func IdleLaneEngines() int { return std.IdleLaneEngines() }
