// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload (harness, campaign, serve or batch)
// for a fixed measuring window, checks the workload's outputs outside that
// window, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead drives the same inputs through the layer entry points with
// a span around each call and reports the per-layer metrics and the
// tracing overhead. A failed check prints no numbers and exits 1.
//
// Run it from the repository root through the wrapper, which builds the
// binary from source under .bench_build:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks every workload to minimal size; the benchmark's own
	// test uses it.
	short bool
	// dir holds scratch files: campaign checkpoints and span dumps.
	dir string
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// nproc sizes every workload's parallelism: campaign workers, the HTTP
// client's connection cap and GOMAXPROCS for batch.
var nproc = runtime.NumCPU()

// workload is one named benchmark workload. A traced run calls setup,
// then traced; a timed run calls setup, measure, check.
type workload interface {
	// setup makes the inputs from the seed and performs one warm-up
	// operation. It may be called several times; the last call wins.
	setup() error
	// measure runs operations until the window has elapsed.
	measure(window time.Duration) (*measurement, error)
	// check verifies the outputs of setup and measure.
	check() error
	// traced drives the workload's inputs through the layer entry points
	// with spans and fills the per-layer metrics it owns.
	traced(tr *tracer, m metrics) error
	close()
}

type measurement struct {
	opMs      []float64 // latency of each operation, ms
	work      float64   // work units completed (see workloadDef.work)
	wall      time.Duration
	attempted int
	failed    int
	// named are the workload's metrics under their workload-specific names
	// (harness_pass_s, trials_per_s, req_p99_ms, ...), printed for
	// people; the JSON line carries the generic end-to-end set.
	named []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

type workloadDef struct {
	new func(cfg config) workload
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps int
	op, work  string // what one operation and one work unit are
}

var workloads = map[string]workloadDef{
	"harness":  {newHarness, 1, "one pass: every experiment at Small scale, then the scorecard", "experiment runs (incl. the scorecard)"},
	"campaign": {newCampaign, 3, "one campaign.Run pass over the mixed grid, checkpointed", "trials"},
	"serve":    {newServe, 3, "one HTTP request, timed from its due time", "completed requests"},
	"batch":    {newBatch, 1, "one cycle of four 64-trial RunBatch calls", "trials"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds one run's reported metrics. It starts with every name
// the run must report, at 0 with its unit; set only updates values.
type metrics map[string]metric

func newMetrics(names []metricName) metrics {
	m := metrics{}
	for _, n := range names {
		m[n.name] = metric{0, n.unit}
	}
	return m
}

func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, m[name].Unit}
}

// endToEnd are the metrics every timed run reports, in print order.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	sum, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: harness, campaign, serve or batch")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measuring window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.short, "short", false, "minimal sizes (for the benchmark's own test)")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/perfbench", "scratch directory for checkpoints and span dumps")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if !(cfg.seconds > 0) {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func run(cfg config, out io.Writer) (*summary, error) {
	def := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d cpu=%q\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, nproc, runtime.GOMAXPROCS(0), cpuModel())
	fmt.Fprintf(out, "  operation: %s; work unit: %s\n", def.op, def.work)

	w := def.new(cfg)
	defer w.close()
	setups := make([]float64, 0, def.setupReps)
	for i := 0; i < def.setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if cfg.trace {
		return runTraced(cfg, w, out)
	}

	m, err := w.measure(cfg.window())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := w.check(); err != nil {
		return nil, fmt.Errorf("%s: check failed: %w", cfg.workload, err)
	}
	if m.failed > 0 {
		return nil, fmt.Errorf("%s: check failed: %d of %d operations failed", cfg.workload, m.failed, m.attempted)
	}

	res := newMetrics(endToEnd)
	res.set("setup_s", median(setups))
	res.set("op_p50_ms", median(m.opMs))
	res.set("work_per_s", m.work/m.wall.Seconds())
	res.set("peak_rss_mb", peakRSSMB())

	fmt.Fprintf(out, "  end-to-end (%d operations in %.3f s, set-up repeated %d×):\n", len(m.opMs), m.wall.Seconds(), len(setups))
	for _, e := range endToEnd {
		fmt.Fprintf(out, "    %-28s %14.6g %s\n", e.name, res[e.name].Value, e.unit)
	}
	fmt.Fprintf(out, "  %s metrics by name:\n", cfg.workload)
	named := append(m.named, namedValue{"fail_frac", float64(m.failed) / float64(max(m.attempted, 1)), "frac",
		fmt.Sprintf("%d failed of %d attempted", m.failed, m.attempted)})
	for _, n := range named {
		fmt.Fprintf(out, "    %-28s %14.6g %-6s %s\n", n.name, n.value, n.unit, n.note)
	}
	return &summary{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: res}, nil
}

func runTraced(cfg config, w workload, out io.Writer) (*summary, error) {
	tr := newTracer()
	m := newMetrics(perLayer())
	if err := w.traced(tr, m); err != nil {
		return nil, fmt.Errorf("%s traced run: %w", cfg.workload, err)
	}
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.dir, cfg.workload, cfg.seed)
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  per-layer (%d spans, written to %s):\n", len(tr.spans), path)
	for _, l := range perLayer() {
		fmt.Fprintf(out, "    %-28s %14.6g %s\n", l.name, m[l.name].Value, l.unit)
	}
	return &summary{Correct: true, Attempted: tr.ops, Failed: 0, Metrics: m}, nil
}

type metricName struct{ name, unit string }

// perLayer lists the per-layer metrics every traced run reports. A layer
// a workload does not reach reports 0.
func perLayer() []metricName {
	out := []metricName{
		{"gen.graphs", "count"}, {"gen.busy_s", "s"}, {"gen.tries_per_graph", "count"},
		{"graph.build_s", "s"}, {"graph.edges", "count"},
		{"core.schedules", "count"}, {"core.busy_s", "s"},
		{"exec.lanes.trials", "count"}, {"exec.scalar.trials", "count"}, {"exec.schedule.runs", "count"},
		{"exec.scalar.fallbacks", "count"}, {"exec.pool_hit_frac", "frac"}, {"exec.alloc_bytes_per_trial", "B"},
		{"lanes.busy_s", "s"}, {"lanes.ns_per_trial", "ns"},
		{"radio.busy_s", "s"}, {"radio.ns_per_trial", "ns"}, {"radio.rounds", "count"},
		{"trace.records", "count"}, {"trace.encode_s", "s"},
		{"campaign.checkpoint_s", "s"}, {"campaign.checkpoint_bytes", "B"}, {"campaign.report_s", "s"},
		{"campaign.unattributed_s", "s"},
		{"serve.server_p50_ms", "ms"}, {"serve.transport_p50_ms", "ms"}, {"serve.cache_hit_frac", "frac"},
		{"serve.rejected_frac", "frac"}, {"serve.capacity_rps", "1/s"}, {"serve.utilisation", "frac"},
		{"load.req_p99_ms", "ms"}, {"load.late_p99_ms", "ms"},
		{"lower.busy_s", "s"},
	}
	for _, id := range repro.Experiments() {
		out = append(out, metricName{"exp." + id + "_s", "s"})
	}
	return append(out, metricName{"exp.scorecard_s", "s"}, metricName{"tracer.overhead_s", "s"})
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile (the ceil(q·n)-th smallest);
// for q = 0.5 on an even count it averages the two middle values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var errMismatch = errors.New("output mismatch")
