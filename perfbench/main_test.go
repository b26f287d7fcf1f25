package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShortMode runs every workload of BENCHMARK.json at minimal size,
// timed and traced, and checks that every named metric is printed with
// its unit, that the JSON line carries exactly the declared metrics, and
// that every output check passed.
func TestShortMode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.3", "--short", "--trace", traced, "--dir", t.TempDir()}
				if code := realMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
					t.Fatalf("result %+v", sum)
				}
				want := f.EndToEnd
				if traced == "1" {
					want = f.PerLayer
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, want %d", len(sum.Metrics), len(want))
				}
				text := strings.Join(lines[:len(lines)-1], "\n")
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\b`)
					if !line.MatchString(text) {
						t.Errorf("metric %s is not printed with its unit", m.Name)
					}
				}
				if traced == "0" && !regexp.MustCompile(`(?m)^\s+fail_frac\s+0\s+frac`).MatchString(text) {
					t.Errorf("fail_frac not printed as 0:\n%s", text)
				}
			})
		}
	}
}

// TestFailedCheckPrintsNoResult: a check that fails exits non-zero and
// prints no result line.
func TestFailedCheckPrintsNoResult(t *testing.T) {
	cfg := config{workload: "batch", seed: 1, seconds: 0.1, short: true, dir: t.TempDir()}
	b := newBatch(cfg).(*batchW)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.measure(cfg.window()); err != nil {
		t.Fatal(err)
	}
	if err := b.check(); err != nil {
		t.Fatalf("unmodified check: %v", err)
	}
	b.ref[0][0]++
	if err := b.check(); err == nil {
		t.Fatal("check passed on a corrupted reference")
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
