package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// campaignW is the `campaign run` path: campaign.Run with nproc workers
// and a fresh checkpoint directory per pass, over a grid mixing every
// way the campaign runner reaches the execution layer. Set-up generates
// the spec and runs one warm-up pass, whose report JSON every timed pass
// must reproduce byte for byte.
type campaignW struct {
	cfg     config
	spec    *campaign.Spec
	ref     []byte
	reports []*campaign.Report
	jsons   [][]byte
}

func newCampaign(cfg config) workload { return &campaignW{cfg: cfg} }

// campaignSpec is the grid: three fixed-graph lane points (session path),
// a fixed-graph collision-rate point (scalar with a trace.Counters
// observer), a resampled distributed point (gen plus one-shot scalar) and
// a resampled centralized point (gen, schedule build, replay).
func campaignSpec(seed uint64, short bool) *campaign.Spec {
	nFixed, nResampled, trials := 20000, 5000, 64
	if short {
		nFixed, nResampled, trials = 2000, 500, 8
	}
	fixed := func(id, kind string) campaign.PointSpec {
		return campaign.PointSpec{ID: id, X: float64(nFixed), Trial: campaign.TrialSpec{Kind: kind, N: nFixed, D: 20, FixedGraph: true}}
	}
	resampled := func(id, kind string) campaign.PointSpec {
		return campaign.PointSpec{ID: id, X: float64(nResampled), Trial: campaign.TrialSpec{Kind: kind, N: nResampled, D: 15}}
	}
	return &campaign.Spec{
		Name:   "perfbench",
		Seed:   seed,
		Trials: trials,
		Points: []campaign.PointSpec{
			fixed("fixed-distributed", "distributed"),
			fixed("fixed-decay", "decay"),
			fixed("fixed-aloha", "aloha"),
			fixed("fixed-collision-rate", "collision-rate"),
			resampled("resampled-distributed", "distributed"),
			resampled("resampled-centralized", "centralized"),
		},
	}
}

func (c *campaignW) setup() error {
	c.spec = campaignSpec(c.cfg.seed, c.cfg.short)
	if err := c.spec.Validate(); err != nil {
		return err
	}
	js, rep, _, err := c.pass(nproc)
	if err != nil {
		return err
	}
	c.ref = js
	c.reports, c.jsons = []*campaign.Report{rep}, [][]byte{js}
	return nil
}

// pass runs the campaign once into a fresh checkpoint directory; the
// timed part is campaign.Run plus encoding the report.
func (c *campaignW) pass(workers int) ([]byte, *campaign.Report, time.Duration, error) {
	dir, err := os.MkdirTemp(c.cfg.dir, "campaign-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	rep, err := campaign.Run(c.spec, campaign.Options{Workers: workers, Dir: dir})
	if err != nil {
		return nil, nil, 0, err
	}
	js, err := rep.JSON()
	return js, rep, time.Since(t0), err
}

func (c *campaignW) measure(window time.Duration) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for len(m.opMs) == 0 || time.Since(start) < window {
		js, rep, el, err := c.pass(nproc)
		if err != nil {
			return nil, err
		}
		m.opMs = append(m.opMs, float64(el.Nanoseconds())/1e6)
		c.reports, c.jsons = append(c.reports, rep), append(c.jsons, js)
		for _, p := range rep.Points {
			m.work += float64(p.Consumed)
			m.attempted += p.Budget
			m.failed += p.Failures + p.Budget - p.Consumed
		}
	}
	m.wall = time.Since(start)
	m.named = []namedValue{{"trials_per_s", m.work / m.wall.Seconds(), "1/s",
		fmt.Sprintf("%d passes of %d points × %d trials, checkpoint flush and report included", len(m.opMs), len(c.spec.Points), c.spec.Trials)}}
	return m, nil
}

// reportOK checks a report is complete with zero failed samples.
func reportOK(rep *campaign.Report) error {
	if !rep.Complete {
		return fmt.Errorf("report incomplete")
	}
	for _, p := range rep.Points {
		if p.Failures > 0 {
			return fmt.Errorf("point %s has %d failed samples", p.ID, p.Failures)
		}
	}
	return nil
}

func (c *campaignW) check() error {
	for i, rep := range c.reports {
		if err := reportOK(rep); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if !bytes.Equal(c.jsons[i], c.ref) {
			return fmt.Errorf("pass %d: report JSON differs from the warm-up pass: %w", i, errMismatch)
		}
	}
	return nil
}

// traced runs campaign.Run on one worker (so layer spans add up to its
// wall time), then replays the same grid serially through the layer
// entry points the campaign runner calls — untraced, then traced — into
// a checkpoint of its own. The one-worker report must pass the timed
// run's checks, and the replay reproduces the runner's positional seeds,
// so its report must equal campaign.Run's byte for byte.
func (c *campaignW) traced(tr *tracer, m metrics) error {
	js, rep, runWall, err := c.pass(1)
	if err != nil {
		return err
	}
	if err := reportOK(rep); err != nil {
		return fmt.Errorf("one-worker pass: %w", err)
	}
	if !bytes.Equal(js, c.ref) {
		return fmt.Errorf("one-worker report differs from the %d-worker one: %w", nproc, errMismatch)
	}
	var before, after exec.Stats
	overhead, err := tracingOverhead(tr, func() error { return c.replayChecked(nil, js) }, func() error {
		before = exec.Snapshot()
		defer func() { after = exec.Snapshot() }()
		return c.replayChecked(tr, js)
	})
	if err != nil {
		return err
	}
	fillExecMetrics(before, after, m)
	fillEngineMetrics(tr, m)
	self := tr.self()
	m.set("campaign.checkpoint_s", self["campaign.checkpoint"])
	m.set("campaign.checkpoint_bytes", tr.count["campaign.checkpoint_bytes"])
	m.set("campaign.report_s", self["campaign.report"])
	var layers float64
	for _, l := range []string{"gen", "exec", "lanes", "radio", "core", "campaign.checkpoint", "campaign.report"} {
		layers += self[l]
	}
	m.set("campaign.unattributed_s", runWall.Seconds()-layers)
	m.set("tracer.overhead_s", overhead)
	return nil
}

func (c *campaignW) replayChecked(tr *tracer, want []byte) error {
	dir, err := os.MkdirTemp(c.cfg.dir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	got, err := c.replay(tr, dir)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replayed report differs from campaign.Run's: %w", errMismatch)
	}
	return nil
}

// laneKinds are the kinds the campaign runner dispatches in lane blocks
// on a fixed graph.
var laneKinds = map[string]bool{"distributed": true, "decay": true, "aloha": true}

func (c *campaignW) replay(tr *tracer, dir string) ([]byte, error) {
	spec := c.spec
	engine := campaign.EngineScalar
	for _, p := range spec.Points {
		if p.Trial.FixedGraph && laneKinds[p.Trial.Kind] {
			engine = campaign.EngineLanes
		}
	}
	var ck *campaign.Checkpoint
	var err error
	tr.do("campaign.checkpoint", func() { ck, err = campaign.CreateCheckpoint(dir, spec, engine) })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			ck.Close() // error path: the directory is discarded
		}
	}()

	// The runner's work list, interleaved across points: lane points in
	// blocks of exec.Width trials, the rest one trial at a time.
	type item struct{ point, first, n int }
	var items []item
	for first := 0; first < spec.Trials; first++ {
		for p, pt := range spec.Points {
			if pt.Trial.FixedGraph && laneKinds[pt.Trial.Kind] {
				if first%exec.Width == 0 {
					items = append(items, item{p, first, min(exec.Width, spec.Trials-first)})
				}
			} else {
				items = append(items, item{p, first, 1})
			}
		}
	}

	parent := xrand.New(spec.Seed)
	runners := make([]*replayRunner, len(spec.Points))
	sinceFlush := 0
	for _, it := range items {
		tr.nextOp()
		r := runners[it.point]
		if r == nil {
			pointSeed := parent.DeriveSeed(uint64(it.point) + 1)
			if r, err = newReplayRunner(tr, spec.Points[it.point].Trial, spec.Trials, pointSeed); err != nil {
				return nil, err
			}
			runners[it.point] = r
		}
		seeds := r.seeds[it.first : it.first+it.n]
		values, oks, err := r.run(tr, seeds)
		if err != nil {
			return nil, err
		}
		for i := range seeds {
			s := &campaign.Sample{Point: it.point, PointID: spec.Points[it.point].ID, Trial: it.first + i,
				Seed: seeds[i], Value: values[i], OK: oks[i]}
			tr.do("campaign.checkpoint", func() { ck.Append(s) })
			if sinceFlush++; sinceFlush >= 64 {
				tr.do("campaign.checkpoint", func() { err = ck.Flush(false) })
				if err != nil {
					return nil, err
				}
				sinceFlush = 0
			}
		}
	}
	tr.do("campaign.checkpoint", func() {
		if err = ck.Flush(true); err == nil {
			closed = true
			err = ck.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add("campaign.checkpoint_bytes", dirBytes(dir))
	}
	var js []byte
	tr.do("campaign.report", func() {
		var rep *campaign.Report
		if rep, err = campaign.ReportDir(dir); err == nil {
			js, err = rep.JSON()
		}
	})
	return js, err
}

// replayRunner mirrors the campaign runner's per-point state: a pinned
// graph in an exec.Session for fixed-graph points, or a fresh graph per
// trial otherwise.
type replayRunner struct {
	t         campaign.TrialSpec
	seeds     []uint64 // the point's trial seeds
	maxRounds int
	proto     repro.Protocol
	sess      *exec.Session
	counters  *trace.Counters // collision-rate only
	out       []int
}

func newReplayRunner(tr *tracer, t campaign.TrialSpec, trials int, pointSeed uint64) (*replayRunner, error) {
	r := &replayRunner{t: t, seeds: trialSeeds(trials, pointSeed), maxRounds: core.MaxRoundsFor(t.N)}
	switch t.Kind {
	case "distributed", "collision-rate":
		r.proto = core.NewDistributedProtocol(t.N, t.D)
	case "decay":
		r.proto = protocols.NewDecay(t.N)
	case "aloha":
		r.proto = protocols.NewAloha(t.D)
	}
	if t.Kind == "collision-rate" {
		r.counters = &trace.Counters{}
	}
	if t.FixedGraph && t.Kind != "centralized" {
		g, err := connectedGraph(tr, t.N, t.D, xrand.New(pointSeed).Derive(0))
		if err != nil {
			return nil, err
		}
		req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds}
		if r.counters != nil {
			req.Observer = r.counters
		}
		tr.do("exec", func() { r.sess = exec.Open(req) })
	}
	return r, nil
}

func (r *replayRunner) run(tr *tracer, seeds []uint64) ([]float64, []bool, error) {
	ctx := context.Background()
	values := make([]float64, len(seeds))
	oks := make([]bool, len(seeds))
	if r.sess != nil && r.counters == nil {
		if cap(r.out) < len(seeds) {
			r.out = make([]int, exec.Width)
		}
		out := r.out[:len(seeds)]
		var err error
		tr.engine(len(seeds), func() string {
			err = r.sess.RunSeeds(ctx, seeds, out)
			return r.sess.Backend().String()
		})
		if err != nil {
			return nil, nil, err
		}
		for i, rounds := range out {
			values[i], oks[i] = float64(rounds), rounds <= r.maxRounds
		}
		return values, oks, nil
	}
	for i, seed := range seeds {
		rng := xrand.New(seed)
		var err error
		switch {
		case r.t.Kind == "centralized":
			values[i], oks[i], err = r.centralized(tr, rng)
		case r.counters != nil:
			values[i], oks[i], err = r.collisionRate(tr, rng)
		default:
			var g *graph.Graph
			if g, err = connectedGraph(tr, r.t.N, r.t.D, rng); err != nil {
				break
			}
			var rounds int
			req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds}
			tr.engine(1, func() string {
				rounds, err = exec.Time(ctx, req, rng)
				return "radio"
			})
			tr.add("radio.rounds", float64(rounds))
			values[i], oks[i] = float64(rounds), rounds <= r.maxRounds
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return values, oks, nil
}

func (r *replayRunner) collisionRate(tr *tracer, rng *xrand.Rand) (float64, bool, error) {
	*r.counters = trace.Counters{}
	var rounds int
	var err error
	if r.sess != nil {
		tr.engine(1, func() string {
			rounds, err = r.sess.Time(context.Background(), rng)
			return "radio"
		})
	} else {
		var g *graph.Graph
		if g, err = connectedGraph(tr, r.t.N, r.t.D, rng); err != nil {
			return 0, false, err
		}
		req := &exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds, Observer: r.counters}
		tr.engine(1, func() string {
			rounds, err = exec.Time(context.Background(), req, rng)
			return "radio"
		})
	}
	tr.add("radio.rounds", float64(rounds))
	listens := r.counters.Successes + r.counters.Collisions + r.counters.Silent
	if listens == 0 {
		return 0, rounds <= r.maxRounds, err
	}
	return float64(r.counters.Collisions) / float64(listens), rounds <= r.maxRounds, err
}

func (r *replayRunner) centralized(tr *tracer, rng *xrand.Rand) (float64, bool, error) {
	g, err := connectedGraph(tr, r.t.N, r.t.D, rng)
	if err != nil {
		return 0, false, err
	}
	var sched *repro.Schedule
	tr.do("core", func() {
		sched, _, err = core.BuildCentralizedSchedule(g, 0, r.t.D, core.DefaultCentralizedConfig(rng.Uint64()))
	})
	if err != nil {
		return 0, false, err
	}
	tr.add("core.schedules", 1)
	var res repro.Result
	tr.engine(1, func() string {
		res, err = exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
		return "radio"
	})
	tr.add("radio.rounds", float64(res.Rounds))
	return float64(res.Rounds), res.Completed, err
}

func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

func (c *campaignW) close() {}
