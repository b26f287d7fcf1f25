package campaign

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sweep"
)

// Lane-engine acceptance tests: a lane-batched point's results must not
// depend on how its trials are blocked, lane reports must not depend on
// the worker count, every run must record the engine that produced its
// samples, and checkpoints must refuse to mix the lane and scalar
// streams of a lane-sensitive spec.

func laneSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Preset("lane-smoke", "small", 2006, 6)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLaneCountInvariance: a lane-batched runner's results are a pure
// function of each trial's seed, so they are identical however a point's
// trials are cut into blocks — single trials, a few, or full exec.Width
// blocks — which is what lets a resumed or sharded campaign re-block its
// missing trials freely.
func TestLaneCountInvariance(t *testing.T) {
	spec := laneSpec(t)
	seeds := sweep.Seeds(exec.Width+6, 5)
	for _, p := range spec.Points {
		runner, err := newRunner(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		want := runBlocks(t, runner, seeds, exec.Width)
		for _, size := range []int{1, 2, 7} {
			got := runBlocks(t, runner, seeds, size)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("point %s, trial %d: %v in blocks of %d, %v in blocks of %d",
						p.ID, i, got[i], size, want[i], exec.Width)
				}
			}
		}
	}
}

// runBlocks runs seeds through r in consecutive blocks of size trials.
func runBlocks(t *testing.T, r Runner, seeds []uint64, size int) []float64 {
	t.Helper()
	values := make([]float64, len(seeds))
	oks := make([]bool, len(seeds))
	for lo := 0; lo < len(seeds); lo += size {
		hi := min(lo+size, len(seeds))
		if err := r.RunTrials(context.Background(), seeds[lo:hi], values[lo:hi], oks[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return values
}

func TestLaneWorkerInvariance(t *testing.T) {
	spec := laneSpec(t)
	base, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, _ := renderings(t, base)
	for _, workers := range []int{3, 8} {
		r, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := renderings(t, r); j != baseJSON {
			t.Errorf("lane report with %d workers differs from 1 worker", workers)
		}
	}
}

// TestScalarFallbackIgnoresLanes: a spec with no fixed-graph point never
// touches the lane engine, so its checkpoints carry the scalar tag; a
// spec with a lane-batched point carries the lane tag.
func TestScalarFallbackIgnoresLanes(t *testing.T) {
	for _, tc := range []struct {
		spec *Spec
		want string
	}{{simSpecScalar(), EngineScalar}, {laneSpec(t), EngineLanes}} {
		dir := filepath.Join(t.TempDir(), "ck")
		if _, err := Run(tc.spec, Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m.Engine != tc.want || EngineTag(tc.spec) != tc.want {
			t.Errorf("%s: manifest engine %q, EngineTag %q, want %q", tc.spec.Name, m.Engine, EngineTag(tc.spec), tc.want)
		}
	}
}

// simSpecScalar is simSpec without its fixed-graph point: fresh graphs
// every trial, so no point is lane-capable.
func simSpecScalar() *Spec {
	spec := simSpec()
	points := spec.Points[:0]
	for _, p := range spec.Points {
		if !batchablePoint(p) {
			points = append(points, p)
		}
	}
	spec.Points = points
	spec.Name = "invariance-sim-scalar"
	return spec
}

// scalarCheckpoint creates an empty checkpoint of spec tagged with the
// scalar engine — what a forced-scalar run of an older version recorded.
func scalarCheckpoint(t *testing.T, spec *Spec) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "scalar")
	ck, err := CreateCheckpoint(dir, spec, EngineScalar)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestResumeEngineMismatch: a scalar-tagged checkpoint of a lane-sensitive
// spec must be refused on resume and on merge with a lane checkpoint —
// the two engines draw different randomness streams, so mixing them
// inside one checkpoint would break the byte-identical-resume guarantee.
// A halted lane run resumes and converges to the uninterrupted report.
func TestResumeEngineMismatch(t *testing.T) {
	spec := laneSpec(t)
	scalarDir := scalarCheckpoint(t, spec)
	if _, err := Run(spec, Options{Dir: scalarDir, Resume: true}); err == nil {
		t.Fatal("resuming a scalar checkpoint of a lane-sensitive spec must fail")
	} else if !strings.Contains(err.Error(), "scalar engine") {
		t.Errorf("mismatch error should name the scalar engine, got: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	partial, err := Run(spec, Options{Dir: dir, HaltAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("halted run must be incomplete")
	}
	if _, err := Merge(filepath.Join(t.TempDir(), "merged"), []string{dir, scalarDir}); err == nil {
		t.Fatal("merging a lane and a scalar checkpoint of a lane-sensitive spec must fail")
	} else if !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("merge error should refuse the engine mix, got: %v", err)
	}
	resumed, err := Run(spec, Options{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete {
		t.Fatal("resumed run must complete")
	}
	full, err := Run(spec, Options{Dir: filepath.Join(t.TempDir(), "full")})
	if err != nil {
		t.Fatal(err)
	}
	fj, ft := renderings(t, full)
	rj, rt := renderings(t, resumed)
	if fj != rj || ft != rt {
		t.Error("resumed lane report differs from uninterrupted run")
	}
}

// TestResumeEngineMismatchInsensitive: for a spec with no lane-capable
// point the engine cannot change any value, so a checkpoint tagged with
// either engine resumes.
func TestResumeEngineMismatchInsensitive(t *testing.T) {
	spec := simSpecScalar()
	dir := filepath.Join(t.TempDir(), "ck")
	ck, err := CreateCheckpoint(dir, spec, EngineLanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(spec, Options{Dir: dir, Resume: true})
	if err != nil {
		t.Fatalf("lane-insensitive resume must accept either engine tag: %v", err)
	}
	if !resumed.Complete {
		t.Fatal("resumed run must complete")
	}
	if _, err := Merge(filepath.Join(t.TempDir(), "merged"), []string{dir, scalarCheckpoint(t, spec)}); err != nil {
		t.Errorf("lane-insensitive merge must accept either engine tag: %v", err)
	}
}
