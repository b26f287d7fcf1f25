package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Runner executes the trials of one grid point. A runner is created once
// per (worker, point) pair and may cache expensive state — graphs,
// engines, scratch buffers — between calls: a trial must reset any
// result-relevant state at its start and draw randomness only from its
// own seed, so its result is a pure function of the seed, independent of
// which worker ran it, what ran before it, or which block it came in.
type Runner interface {
	// RunTrials executes one trial per seed: values[i] receives seed i's
	// scalar measurement and oks[i] its trial-level success (e.g. the
	// broadcast completed within budget). A block is one seed, or up to
	// exec.Width seeds for a lane-batched point (batchablePoint), whose
	// trials advance together on the bit-parallel lane engine — a
	// different, distributionally identical randomness stream from the
	// scalar engine's; checkpoints record which engine produced them
	// (Manifest.Engine). ctx is never nil. A runner that honours it
	// returns an error wrapping radio.ErrCanceled once it is canceled,
	// and the worker discards the whole block (recording a partially run
	// trial would make checkpoints depend on cancellation timing).
	// Uncanceled, results must not depend on ctx: checking it consumes no
	// randomness.
	RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error
}

// eachSeed runs trial once per seed, on rng reseeded to that seed (the
// state xrand.New(seed) returns, without allocating), and stops at the
// first error — the block loop of every runner whose trials run one at a
// time. A canceled ctx stops it between trials.
func eachSeed(ctx context.Context, rng *xrand.Rand, seeds []uint64, values []float64, oks []bool, trial func(*xrand.Rand) (float64, bool, error)) error {
	for i, seed := range seeds {
		if ctx.Err() != nil {
			return radio.Canceled(ctx)
		}
		rng.Reseed(seed)
		v, ok, err := trial(rng)
		if err != nil {
			return err
		}
		values[i], oks[i] = v, ok
	}
	return nil
}

// batchKinds are the built-in trial kinds the lane engine accelerates:
// randomized uniform-schedule protocols measured on a fixed graph.
var batchKinds = map[string]bool{"distributed": true, "decay": true, "aloha": true}

// batchablePoint reports whether a point's trials may be dispatched in
// lane blocks: the kind must be lane-capable and the graph fixed (a
// per-trial resampled graph leaves nothing for a block to share).
func batchablePoint(p PointSpec) bool {
	return p.Trial.FixedGraph && batchKinds[p.Trial.Kind]
}

// laneSensitive reports whether any point of the spec would be lane
// batched: only then does the engine choice (scalar vs lanes) change
// recorded sample values, so only then do checkpoints refuse an engine
// mismatch on resume or merge.
func (s *Spec) laneSensitive() bool {
	for _, p := range s.Points {
		if batchablePoint(p) {
			return true
		}
	}
	return false
}

// NewRunnerFunc builds a Runner for a point. pointSeed is the point's
// derived base seed; runners that pin state to the point (FixedGraph)
// must derive it from pointSeed with ids outside 1..Trials (the trial
// ids), conventionally id 0, so every worker builds identical state.
type NewRunnerFunc func(p PointSpec, pointSeed uint64) (Runner, error)

var (
	kindMu sync.RWMutex
	kinds  = map[string]NewRunnerFunc{}
)

// RegisterKind registers a trial kind. Registering a duplicate name
// panics. Extensions and tests may register their own kinds before
// building specs that reference them.
func RegisterKind(name string, fn NewRunnerFunc) {
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic("campaign: duplicate trial kind " + name)
	}
	kinds[name] = fn
}

// KindRegistered reports whether a trial kind is registered.
func KindRegistered(name string) bool {
	kindMu.RLock()
	defer kindMu.RUnlock()
	_, ok := kinds[name]
	return ok
}

// Kinds returns the registered kind names, sorted.
func Kinds() []string {
	kindMu.RLock()
	defer kindMu.RUnlock()
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// newRunner builds the Runner for a point.
func newRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	kindMu.RLock()
	fn, ok := kinds[p.Trial.Kind]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("campaign: unknown trial kind %q", p.Trial.Kind)
	}
	return fn(p, pointSeed)
}

func init() {
	RegisterKind("distributed", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return core.NewDistributedProtocol(t.N, t.D)
	}))
	RegisterKind("decay", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewDecay(t.N)
	}))
	RegisterKind("aloha", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewAloha(t.D)
	}))
	RegisterKind("centralized", newCentralizedRunner)
	RegisterKind("collision-rate", newCollisionRateRunner)
}

// maxRounds returns the effective round budget of a trial spec.
func (t TrialSpec) maxRounds() int {
	if t.MaxRounds > 0 {
		return t.MaxRounds
	}
	return core.MaxRoundsFor(t.N)
}

// graphSeedID is the Derive id reserved for the FixedGraph sample; trial
// seeds use ids 1..Trials (sweep.Seeds), so 0 is free.
const graphSeedID = 0

// protocolRunner measures the completion round of a randomized protocol:
// value is the round the broadcast completed (maxRounds+1 if it did not),
// ok reports completion. With FixedGraph the graph is sampled once per
// worker from the point seed and pinned in an exec.Session, which runs
// each block on its lane engine (built on the first block); otherwise
// each trial samples a fresh connected G(n,p) from its own rng and
// dispatches one-shot.
type protocolRunner struct {
	spec      TrialSpec
	proto     radio.Protocol
	maxRounds int
	sess      *exec.Session // non-nil iff FixedGraph
	out       []int         // the session's completion rounds, exec.Width long
	rng       xrand.Rand
}

func newProtocolKind(proto func(TrialSpec) radio.Protocol) NewRunnerFunc {
	return func(p PointSpec, pointSeed uint64) (Runner, error) {
		r := &protocolRunner{spec: p.Trial, proto: proto(p.Trial), maxRounds: p.Trial.maxRounds()}
		if p.Trial.FixedGraph {
			g := gen.MustConnectedGnp(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
			r.sess = exec.Open(&exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds})
			r.out = make([]int, exec.Width)
		}
		return r, nil
	}
}

func (r *protocolRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	if r.sess == nil {
		return eachSeed(ctx, &r.rng, seeds, values, oks, func(rng *xrand.Rand) (float64, bool, error) {
			g := gen.MustConnectedGnp(r.spec.N, r.spec.D, rng)
			rounds, err := exec.Time(ctx, &exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds}, rng)
			return float64(rounds), rounds <= r.maxRounds, err
		})
	}
	out := r.out[:len(seeds)]
	if err := r.sess.RunSeeds(ctx, seeds, out); err != nil {
		return err
	}
	for i, rounds := range out {
		values[i], oks[i] = float64(rounds), rounds <= r.maxRounds
	}
	return nil
}

// centralizedRunner measures the replayed length of the Theorem 5
// centralized schedule: value is the executed rounds, ok reports
// completion. Each trial samples a fresh graph and builds a fresh
// schedule seeded from the trial rng; with FixedGraph the graph is pinned
// to the point seed and only the schedule seed varies per trial (a
// fixed-graph fixed-schedule replay would be the same deterministic
// number every trial).
type centralizedRunner struct {
	spec  TrialSpec
	fixed *graph.Graph // non-nil iff FixedGraph
	rng   xrand.Rand
}

func newCentralizedRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	r := &centralizedRunner{spec: p.Trial}
	if p.Trial.FixedGraph {
		r.fixed = gen.MustConnectedGnp(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
	}
	return r, nil
}

func (r *centralizedRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	return eachSeed(ctx, &r.rng, seeds, values, oks, func(rng *xrand.Rand) (float64, bool, error) {
		g := r.fixed
		if g == nil {
			g = gen.MustConnectedGnp(r.spec.N, r.spec.D, rng)
		}
		sched, _, err := core.BuildCentralizedSchedule(g, 0, r.spec.D, core.DefaultCentralizedConfig(rng.Uint64()))
		if err != nil {
			return 0, false, fmt.Errorf("campaign: building centralized schedule: %w", err)
		}
		// Schedule replay is deterministic (no rng): the schedule backend.
		res, err := exec.Run(ctx, &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
		if err != nil {
			return 0, false, fmt.Errorf("campaign: replaying centralized schedule: %w", err)
		}
		return float64(res.Rounds), res.Completed, nil
	})
}

// collisionRateRunner measures the fraction of listener-rounds lost to
// collisions during one distributed broadcast (the E23-style aggregate):
// value = collisions / (successes + collisions + silent), ok reports
// completion. A per-runner trace.Counters observer is reset each trial.
type collisionRateRunner struct {
	spec      TrialSpec
	maxRounds int
	proto     radio.Protocol // hoisted: one construction per runner, not per trial
	counters  trace.Counters
	sess      *exec.Session // non-nil iff FixedGraph; engine observed by counters
	rng       xrand.Rand
}

func newCollisionRateRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	r := &collisionRateRunner{
		spec:      p.Trial,
		maxRounds: p.Trial.maxRounds(),
		proto:     core.NewDistributedProtocol(p.Trial.N, p.Trial.D),
	}
	if p.Trial.FixedGraph {
		g := gen.MustConnectedGnp(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
		r.sess = exec.Open(&exec.Request{
			Graph: g, Sources: []int32{0}, Protocol: r.proto,
			MaxRounds: r.maxRounds, Observer: &r.counters,
		})
	}
	return r, nil
}

func (r *collisionRateRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	return eachSeed(ctx, &r.rng, seeds, values, oks, func(rng *xrand.Rand) (float64, bool, error) {
		r.counters = trace.Counters{}
		// Time materialises no Result (whose InformedAt slice would be an
		// n-sized allocation per trial); the counters observer carries the
		// aggregate.
		var rounds int
		var err error
		if r.sess != nil {
			rounds, err = r.sess.Time(ctx, rng)
		} else {
			g := gen.MustConnectedGnp(r.spec.N, r.spec.D, rng)
			rounds, err = exec.Time(ctx, &exec.Request{
				Graph: g, Sources: []int32{0}, Protocol: r.proto,
				MaxRounds: r.maxRounds, Observer: &r.counters,
			}, rng)
		}
		completed := rounds <= r.maxRounds
		listens := r.counters.Successes + r.counters.Collisions + r.counters.Silent
		if listens == 0 {
			return 0, completed, err
		}
		return float64(r.counters.Collisions) / float64(listens), completed, err
	})
}
