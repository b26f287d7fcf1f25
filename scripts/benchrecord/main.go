// Command benchrecord turns `go test -bench` output into the repository's
// BENCH_N.json performance records, and gates performance ratios in CI.
//
// Record mode (the default) reads benchmark output on stdin (or -in),
// and writes a BENCH_N.json-shaped document to -out: environment lines
// (goos/goarch/cpu) are taken from the benchmark output itself and the
// date from -date, so the same input always produces the same record —
// regeneration is deterministic and diffable:
//
//	go test -run '^$' -bench 'BenchmarkBroadcastReuse$|BenchmarkLaneBroadcast' \
//	    -benchmem -benchtime 2s . > bench.out
//	go run ./scripts/benchrecord -in bench.out -date 2026-08-08 \
//	    -comment "..." -ref-name "..." -ref-ns 36789982 -accept-ratio 6 -out BENCH_3.json
//
// The acceptance section compares the lane benchmark's ns/trial metric
// (-lane-bench, default BenchmarkLaneBroadcast) against the fixed
// reference trial cost -ref-ns; the tool exits nonzero when the speedup
// is below -accept-ratio, so recording and enforcing the acceptance bar
// are the same step.
//
// Check mode (-check) asserts a same-run ratio instead of writing JSON:
// the scalar benchmark's ns/op divided by the lane benchmark's ns/trial
// must be at least -min-ratio. Because both numbers come from one run on
// one machine, the gate is portable to CI hardware of any speed.
//
// With -base-bench, both modes instead compare -lane-bench against that
// baseline in the same run: ns/trial overhead (gated by -max-overhead)
// and bytes per op (gated by -max-bytes-ratio). When neither benchmark
// reports ns/trial (one unit of work per op, e.g. building a schedule
// against replaying it) the overhead is their same-run ns/op ratio.
// Benchmarks run at several -cpu values are compared per GOMAXPROCS value
// (the "-N" name suffix), each pair gated separately.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"` // GOMAXPROCS of the run, from the "-N" name suffix
	What        string  `json:"what,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerTrial  float64 `json:"ns_per_trial,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// record is the BENCH_N.json document shape (see BENCH_2.json).
type record struct {
	Comment    string         `json:"comment"`
	Recorded   string         `json:"recorded"`
	Goos       string         `json:"goos"`
	Goarch     string         `json:"goarch"`
	CPU        string         `json:"cpu"`
	Go         string         `json:"go"`
	Workload   map[string]any `json:"workload"`
	Reference  map[string]any `json:"reference,omitempty"`
	Acceptance map[string]any `json:"acceptance,omitempty"`
	Benchmarks []*benchResult `json:"benchmarks"`
}

// whatFor annotates the benchmarks this repository records.
var whatFor = map[string]string{
	"BenchmarkBroadcastReuse":             "scalar reference: BroadcastTimeOn on a caller-owned engine, sampled fast path, one trial per op",
	"BenchmarkLaneBroadcast":              "bit-parallel lane engine: 64 trials per Engine.Run call on the same workload; ns/trial is the headline metric",
	"BenchmarkLaneBroadcastSmall":         "lane engine at n=10000 d=25 for the EXPERIMENTS.md throughput table",
	"BenchmarkBroadcastReusePerNode":      "per-node sampling opt-out (pre-fast-path behaviour)",
	"BenchmarkSubstrateCentralizedBuild":  "Theorem 5 schedule builder (core.BuildCentralizedSchedule via BuildSchedule), one schedule per op, seed = iteration index",
	"BenchmarkSubstrateCentralizedReplay": "radio.ExecuteSchedule replay of the builder's schedules on the same graph, one replay per op; build ns/op over replay ns/op is the builder's overhead",
	"BenchmarkFacadeRunBatch":             "facade RunBatch through the unified execution layer (internal/exec): classification, seed derivation, balanced block sharding and pooled lane-engine checkout included; ns/trial and B/op vs BenchmarkLaneBroadcast are the executor overhead",
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "record output file (default stdout)")
	date := flag.String("date", "", "recorded date, YYYY-MM-DD (required in record mode: keeps regeneration deterministic)")
	comment := flag.String("comment", "", "record comment")
	goVersion := flag.String("go", "go1.24.0", "toolchain version stamped into the record")
	refName := flag.String("ref-name", "", "acceptance reference description")
	refNs := flag.Float64("ref-ns", 0, "acceptance reference cost in ns per trial")
	acceptRatio := flag.Float64("accept-ratio", 0, "minimum speedup of -lane-bench ns/trial vs -ref-ns (0 = no gate)")
	laneBench := flag.String("lane-bench", "BenchmarkLaneBroadcast", "benchmark whose ns/trial metric is the headline; with -base-bench, the benchmark compared against the base")
	scalarBench := flag.String("scalar-bench", "BenchmarkBroadcastReuse", "scalar benchmark for -check's same-run ratio")
	check := flag.Bool("check", false, "check mode: assert scalar ns/op / lane ns/trial >= -min-ratio, write no record")
	minRatio := flag.Float64("min-ratio", 3, "minimum same-run speedup accepted by -check")
	baseBench := flag.String("base-bench", "", "baseline benchmark for the same-run overhead gate: -lane-bench ns/trial (ns/op when neither reports ns/trial) over this benchmark's must stay <= -max-overhead")
	maxOverhead := flag.Float64("max-overhead", 0, "maximum same-run overhead ratio accepted when -base-bench is set (0 = no gate)")
	maxBytesRatio := flag.Float64("max-bytes-ratio", 0, "maximum same-run B/op of -lane-bench over -base-bench's B/op when -base-bench is set (0 = no gate)")
	n := flag.Int("n", 100000, "workload graph size")
	d := flag.Float64("d", 25, "workload expected degree")
	flag.Parse()

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	env, results, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *check {
		if *baseBench != "" {
			// Overhead form: both numbers of each pair come from the same
			// run, so the gates are portable to CI hardware of any speed.
			for _, c := range compareToBase(results, *laneBench, *baseBench) {
				fmt.Printf("benchrecord: %s\n", c.overheadNote(*maxOverhead))
				fmt.Printf("benchrecord: %s\n", c.bytesNote(*maxBytesRatio))
				c.gate(*maxOverhead, *maxBytesRatio, "gate")
			}
			return
		}
		scalar := find(results, *scalarBench, 0)
		lane := find(results, *laneBench, 0)
		if scalar == nil || lane == nil {
			fatal(fmt.Errorf("check needs both %s and %s in the input", *scalarBench, *laneBench))
		}
		if lane.NsPerTrial == 0 {
			fatal(fmt.Errorf("%s reports no ns/trial metric", *laneBench))
		}
		ratio := scalar.NsPerOp / lane.NsPerTrial
		fmt.Printf("benchrecord: %s %.0f ns/op vs %s %.0f ns/trial: %.2fx (gate %.2fx)\n",
			*scalarBench, scalar.NsPerOp, *laneBench, lane.NsPerTrial, ratio, *minRatio)
		if ratio < *minRatio {
			fatal(fmt.Errorf("lane speedup %.2fx below the %.2fx gate", ratio, *minRatio))
		}
		return
	}

	if *date == "" {
		fatal(fmt.Errorf("-date is required in record mode"))
	}
	rec := &record{
		Comment:  *comment,
		Recorded: *date,
		Goos:     env["goos"],
		Goarch:   env["goarch"],
		CPU:      env["cpu"],
		Go:       *goVersion,
		Workload: map[string]any{
			"n":               *n,
			"expected_degree": *d,
		},
		Benchmarks: results,
	}
	if *refNs > 0 {
		rec.Reference = map[string]any{
			"name":      *refName,
			"ns_per_op": int64(*refNs),
		}
		lane := find(results, *laneBench, 0)
		if lane == nil || lane.NsPerTrial == 0 {
			fatal(fmt.Errorf("acceptance needs %s with a ns/trial metric", *laneBench))
		}
		speedup := *refNs / lane.NsPerTrial
		rec.Acceptance = map[string]any{
			"speedup_vs_reference": round2(speedup),
			"note": fmt.Sprintf("%s at %.0f ns/trial vs the %.0f ns reference = %.1fx (criterion: >= %.1fx)",
				*laneBench, lane.NsPerTrial, *refNs, speedup, *acceptRatio),
		}
		if *acceptRatio > 0 && speedup < *acceptRatio {
			fatal(fmt.Errorf("lane speedup %.2fx below the %.2fx acceptance bar", speedup, *acceptRatio))
		}
	}
	if *baseBench != "" {
		if rec.Acceptance == nil {
			rec.Acceptance = map[string]any{}
		}
		cmps := compareToBase(results, *laneBench, *baseBench)
		for _, c := range cmps {
			// One comparison keeps the unsuffixed keys; several (a -cpu
			// list) get one key set per GOMAXPROCS value.
			suffix := ""
			if len(cmps) > 1 {
				suffix = fmt.Sprintf("_cpu%d", c.procs)
			}
			rec.Acceptance["overhead_vs_base"+suffix] = round2(c.overhead())
			rec.Acceptance["overhead_note"+suffix] = c.overheadNote(*maxOverhead)
			if *maxBytesRatio > 0 {
				rec.Acceptance["bytes_vs_base"+suffix] = round4(c.bytesRatio())
				rec.Acceptance["bytes_note"+suffix] = c.bytesNote(*maxBytesRatio)
			}
			c.gate(*maxOverhead, *maxBytesRatio, "acceptance bar")
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
}

// parse reads `go test -bench` output: environment header lines
// (goos/goarch/cpu) and benchmark result lines. A benchmark line is
//
//	BenchmarkName-8   62   36789982 ns/op   4089250 ns/trial   45259 B/op   1 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parse(r io.Reader) (env map[string]string, results []*benchResult, err error) {
	env = map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name, procs := f[0], 1
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		res := &benchResult{Name: name, Procs: procs, What: whatFor[name], Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "ns/trial":
				res.NsPerTrial = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		results = append(results, res)
	}
	return env, results, sc.Err()
}

// comparison pairs the lane benchmark with the base benchmark at one
// GOMAXPROCS value of the same run.
type comparison struct {
	procs      int
	lane, base *benchResult
}

// compareToBase pairs laneName with baseName at every GOMAXPROCS value
// the lane benchmark ran at; both must report ns/trial, or neither (then
// ns/op is compared).
func compareToBase(results []*benchResult, laneName, baseName string) []comparison {
	var cmps []comparison
	for _, lane := range results {
		if lane.Name != laneName {
			continue
		}
		base := find(results, baseName, lane.Procs)
		if base == nil {
			fatal(fmt.Errorf("overhead gate needs %s at GOMAXPROCS=%d alongside %s", baseName, lane.Procs, laneName))
		}
		if (lane.NsPerTrial == 0) != (base.NsPerTrial == 0) {
			fatal(fmt.Errorf("overhead gate needs ns/trial metrics on both %s and %s, or on neither", laneName, baseName))
		}
		cmps = append(cmps, comparison{lane.Procs, lane, base})
	}
	if len(cmps) == 0 {
		fatal(fmt.Errorf("overhead gate needs both %s and %s in the input", laneName, baseName))
	}
	return cmps
}

// cost is a benchmark's per-unit time for the overhead ratio: ns/trial
// when it reports one, else ns/op.
func (r *benchResult) cost() (ns float64, unit string) {
	if r.NsPerTrial != 0 {
		return r.NsPerTrial, "ns/trial"
	}
	return r.NsPerOp, "ns/op"
}

func (c comparison) overhead() float64 {
	lane, _ := c.lane.cost()
	base, _ := c.base.cost()
	return lane / base
}

// bytesRatio is the lane benchmark's B/op over the base's; a zero base
// counts as one byte, so an allocation-free pair compares as 0.
func (c comparison) bytesRatio() float64 {
	return float64(c.lane.BytesPerOp) / float64(max(c.base.BytesPerOp, 1))
}

func (c comparison) overheadNote(bar float64) string {
	lane, unit := c.lane.cost()
	base, _ := c.base.cost()
	return fmt.Sprintf("%s at %.0f %s over %s at %.0f %s in the same run, GOMAXPROCS=%d = %.3fx (%s)",
		c.lane.Name, lane, unit, c.base.Name, base, unit, c.procs, c.overhead(), criterion(bar))
}

func (c comparison) bytesNote(bar float64) string {
	return fmt.Sprintf("%s at %d B/op over %s at %d B/op in the same run, GOMAXPROCS=%d = %.3fx (%s)",
		c.lane.Name, c.lane.BytesPerOp, c.base.Name, c.base.BytesPerOp, c.procs, c.bytesRatio(), criterion(bar))
}

func criterion(bar float64) string {
	if bar <= 0 {
		return "no gate"
	}
	return fmt.Sprintf("criterion: <= %.2fx", bar)
}

// gate exits nonzero when a set (nonzero) bar is exceeded.
func (c comparison) gate(maxOverhead, maxBytesRatio float64, what string) {
	if maxOverhead > 0 && c.overhead() > maxOverhead {
		fatal(fmt.Errorf("GOMAXPROCS=%d: overhead %.3fx above the %.2fx %s", c.procs, c.overhead(), maxOverhead, what))
	}
	if maxBytesRatio > 0 && c.bytesRatio() > maxBytesRatio {
		fatal(fmt.Errorf("GOMAXPROCS=%d: B/op ratio %.3fx above the %.2fx %s", c.procs, c.bytesRatio(), maxBytesRatio, what))
	}
}

// find returns the named benchmark's result at GOMAXPROCS procs, or at
// the first GOMAXPROCS it ran at when procs is 0.
func find(results []*benchResult, name string, procs int) *benchResult {
	for _, r := range results {
		if r.Name == name && (procs == 0 || r.Procs == procs) {
			return r
		}
	}
	return nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// round4 keeps B/op ratios, which pooling drives far below 0.01, legible.
func round4(v float64) float64 {
	return float64(int64(v*10000+0.5)) / 10000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrecord:", err)
	os.Exit(1)
}
