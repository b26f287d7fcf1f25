package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"repro"
	"repro/internal/lower"
	"repro/internal/xrand"
)

// harness is the `make experiments` / `make verify` path: every
// registered experiment at Small scale through repro.RunExperiment, then
// the scorecard through repro.VerifyReproduction, serially. Set-up is one
// warm-up pass, whose table digests are the reference every timed pass
// must reproduce.
type harness struct {
	cfg    config
	ids    []string
	ref    []string // table digest per experiment, from the warm-up pass
	passes []harnessPass
}

type harnessPass struct {
	digests      []string
	e3           [][]string // E3b rows, for the lower-layer replay check
	claims, lost int        // scorecard claims checked, and failed
}

// shortIDs are the experiments short mode runs: the cheapest ones.
var shortIDs = []string{"E1", "E2", "E14"}

func newHarness(cfg config) workload { return &harness{cfg: cfg} }

func (h *harness) setup() error {
	h.ids = repro.Experiments()
	if h.cfg.short {
		h.ids = shortIDs
	}
	p, err := h.pass(nil)
	if err != nil {
		return err
	}
	h.ref = p.digests
	h.passes = []harnessPass{p}
	return nil
}

func (h *harness) pass(tr *tracer) (harnessPass, error) {
	var p harnessPass
	for _, id := range h.ids {
		var tables []*repro.ResultTable
		var err error
		tr.do("exp."+id, func() { tables, err = repro.RunExperiment(id, repro.ScaleSmall, h.cfg.seed) })
		if err != nil {
			return p, err
		}
		sum := sha256.New()
		for _, t := range tables {
			sum.Write([]byte(t.String()))
		}
		p.digests = append(p.digests, hex.EncodeToString(sum.Sum(nil)))
		if id == "E3" && len(tables) == 2 {
			p.e3 = tables[1].Rows
		}
	}
	var checks []repro.ReproductionCheck
	tr.do("exp.scorecard", func() { checks, _ = repro.VerifyReproduction(repro.ScaleSmall, h.cfg.seed) })
	p.claims = len(checks)
	for _, c := range checks {
		if !c.Pass {
			p.lost++
		}
	}
	return p, nil
}

func (h *harness) measure(window time.Duration) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for len(m.opMs) == 0 || time.Since(start) < window {
		t0 := time.Now()
		p, err := h.pass(nil)
		if err != nil {
			return nil, err
		}
		m.opMs = append(m.opMs, msSince(t0))
		h.passes = append(h.passes, p)
		m.work += float64(len(h.ids) + 1)
		m.attempted += len(h.ids) + p.claims
		m.failed += p.lost
	}
	m.wall = time.Since(start)
	m.named = []namedValue{{"harness_pass_s", median(m.opMs) / 1000, "s", fmt.Sprintf("median of %d passes", len(m.opMs))}}
	return m, nil
}

func (h *harness) check() error {
	for i, p := range h.passes {
		if p.claims == 0 || p.lost > 0 {
			return fmt.Errorf("pass %d: scorecard %d/%d claims reproduced", i, p.claims-p.lost, p.claims)
		}
		for j, d := range p.digests {
			if d != h.ref[j] {
				return fmt.Errorf("pass %d: %s tables differ from the warm-up pass: %w", i, h.ids[j], errMismatch)
			}
		}
	}
	return nil
}

// traced times a traced pass against untraced ones (the difference is
// the tracing overhead), then replays E3's survivor-threshold search
// through lower.SurvivorThreshold with E3's own inputs and checks it
// reproduces the E3b table.
func (h *harness) traced(tr *tracer, m metrics) error {
	var p harnessPass
	overhead, err := tracingOverhead(tr, func() error {
		_, err := h.pass(nil)
		return err
	}, func() (err error) {
		tr.nextOp()
		p, err = h.pass(tr)
		return err
	})
	if err != nil {
		return err
	}
	h.passes = append(h.passes, p)
	if err := h.check(); err != nil {
		return err
	}
	if p.e3 != nil {
		if err := h.replayE3b(tr, p.e3); err != nil {
			return err
		}
	}
	self := tr.self()
	for _, id := range h.ids {
		m.set("exp."+id+"_s", self["exp."+id])
	}
	m.set("exp.scorecard_s", self["exp.scorecard"])
	m.set("lower.busy_s", self["lower"])
	m.set("tracer.overhead_s", overhead)
	return nil
}

// replayE3b mirrors E3b's inputs: n = 2^8, 2^12, 2^16 with 150 probe
// trials at pair fraction 1/2, all drawn from one stream seeded seed+999.
func (h *harness) replayE3b(tr *tracer, rows [][]string) error {
	tr.nextOp()
	rng := xrand.New(h.cfg.seed + 999)
	for i, e := range []int{8, 12, 16} {
		var k int
		tr.do("lower", func() { k = lower.SurvivorThreshold(1<<e, 150, 0.5, rng) })
		if i >= len(rows) || rows[i][1] != strconv.Itoa(k) {
			return fmt.Errorf("lower.SurvivorThreshold(2^%d) = %d does not reproduce E3b row %v: %w", e, k, rows, errMismatch)
		}
	}
	return nil
}

func (h *harness) close() {}
