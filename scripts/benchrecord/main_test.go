package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
cpu: Example CPU
BenchmarkSubstrateCentralizedBuild-2    	     324	   7000000 ns/op	 1034439 B/op	     155 allocs/op
BenchmarkSubstrateCentralizedReplay-2   	     846	   2800000 ns/op	  445281 B/op	      49 allocs/op
BenchmarkLaneBroadcast-2   	       5	 436935766 ns/op	   6827108 ns/trial	 5946912 B/op	      14 allocs/op
BenchmarkFacadeRunBatch-2  	       9	 259569614 ns/op	   4055769 ns/trial	   22213 B/op	      12 allocs/op
`

func TestOverheadUsesNsPerOpWithoutTrialMetric(t *testing.T) {
	env, results, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if env["cpu"] != "Example CPU" || len(results) != 4 {
		t.Fatalf("parsed env %v, %d results", env, len(results))
	}
	cmps := compareToBase(results, "BenchmarkSubstrateCentralizedBuild", "BenchmarkSubstrateCentralizedReplay")
	if len(cmps) != 1 || cmps[0].procs != 2 {
		t.Fatalf("comparisons %+v", cmps)
	}
	if got := cmps[0].overhead(); got != 2.5 {
		t.Fatalf("ns/op overhead = %v, want 2.5", got)
	}
	if note := cmps[0].overheadNote(3); !strings.Contains(note, "7000000 ns/op") || !strings.Contains(note, "= 2.500x") {
		t.Fatalf("note %q does not report the ns/op ratio", note)
	}
}

func TestOverheadPrefersNsPerTrial(t *testing.T) {
	_, results, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	cmps := compareToBase(results, "BenchmarkFacadeRunBatch", "BenchmarkLaneBroadcast")
	if got, want := cmps[0].overhead(), 4055769.0/6827108.0; got != want {
		t.Fatalf("ns/trial overhead = %v, want %v", got, want)
	}
}
