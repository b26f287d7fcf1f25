package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one call from the benchmark into a layer entry point.
type span struct {
	Layer  string `json:"layer"`
	Op     int    `json:"op"`     // spans of one operation share it
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shadow marks a call made only to measure a layer the program calls
	// from inside another (the CSR re-build); it is excluded from the
	// tracing overhead.
	Shadow bool `json:"shadow,omitempty"`
}

// tracer keeps spans in memory and writes them out at the end. Traced
// replays are serial, so spans nest through a stack. A nil *tracer is
// the untraced twin: every method calls straight through, so one replay
// function serves both the traced and the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int // current operation id
	ops   int // operations driven
	count map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), count: map[string]float64{}}
}

func (t *tracer) begin(layer string, shadow bool) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Layer: layer, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0)), Shadow: shadow})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost span; a non-empty layer relabels it (for a
// call whose layer is known only from its result, like exec.RunSeeds
// reporting the backend it chose).
func (t *tracer) end(layer string) {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	if layer != "" {
		t.spans[i].Layer = layer
	}
}

// do runs fn inside a span of layer.
func (t *tracer) do(layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(layer, false)
	fn()
	t.end("")
}

// shadow runs fn inside a shadow span, and only when tracing.
func (t *tracer) shadow(layer string, fn func()) {
	if t == nil {
		return
	}
	t.begin(layer, true)
	fn()
	t.end("")
}

// engine runs fn — a call into exec that executes trials on an engine —
// in a span, relabelled to the layer fn returns, and charges the bytes it
// allocated to exec.
func (t *tracer) engine(trials int, fn func() string) {
	if t == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.begin("exec", false)
	layer := fn()
	t.end(layer)
	runtime.ReadMemStats(&after)
	t.add("exec.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	t.add("exec.trials", float64(trials))
	t.add(layer+".trials", float64(trials))
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.count[name] += v
	}
}

// nextOp starts a new operation: later spans carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.ops++
		t.op = t.ops
	}
}

// self returns each layer's self time in seconds: its spans' durations
// minus the part their child spans cover.
func (t *tracer) self() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// shadowSeconds is the total duration of root-level shadow spans and of
// shadow spans nested in non-shadow ones, i.e. the extra work a traced
// pass did beyond its untraced twin.
func (t *tracer) shadowSeconds() float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Shadow && (s.Parent < 0 || !t.spans[s.Parent].Shadow) {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fillEngineMetrics converts the tracer's self times and counters into
// the layer metrics shared by every workload.
func fillEngineMetrics(tr *tracer, m metrics) {
	self := tr.self()
	c := tr.count
	m.set("gen.graphs", c["gen.graphs"])
	m.set("gen.busy_s", self["gen"])
	if c["gen.graphs"] > 0 {
		m.set("gen.tries_per_graph", c["gen.tries"]/c["gen.graphs"])
	}
	m.set("graph.build_s", self["graph"])
	m.set("graph.edges", c["graph.edges"])
	m.set("core.schedules", c["core.schedules"])
	m.set("core.busy_s", self["core"])
	if c["exec.trials"] > 0 {
		m.set("exec.alloc_bytes_per_trial", c["exec.alloc_bytes"]/c["exec.trials"])
	}
	m.set("lanes.busy_s", self["lanes"])
	if c["lanes.trials"] > 0 {
		m.set("lanes.ns_per_trial", self["lanes"]*1e9/c["lanes.trials"])
	}
	m.set("radio.busy_s", self["radio"])
	if c["radio.trials"] > 0 {
		m.set("radio.ns_per_trial", self["radio"]*1e9/c["radio.trials"])
	}
	m.set("radio.rounds", c["radio.rounds"])
	m.set("trace.records", c["trace.records"])
	m.set("trace.encode_s", self["trace"])
}

// tracingOverhead times the untraced twin before and after the traced
// run and returns the traced wall time, less its shadow calls, minus the
// faster untraced one — so warm-up order does not bias the difference.
func tracingOverhead(tr *tracer, untraced, traced func() error) (float64, error) {
	timed := func(fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0).Seconds(), err
	}
	u1, err := timed(untraced)
	if err != nil {
		return 0, err
	}
	t, err := timed(traced)
	if err != nil {
		return 0, err
	}
	u2, err := timed(untraced)
	if err != nil {
		return 0, err
	}
	return t - tr.shadowSeconds() - min(u1, u2), nil
}
