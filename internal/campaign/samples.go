package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the shard extraction/import layer the cluster subsystem
// builds on: a SampleSet accumulates samples from many producers (local
// runs, remote workers, checkpoint shards) with duplicate and conflict
// detection, and Encode/DecodeSamples are the JSONL wire format a worker
// streams its shard results back in. Everything here preserves the
// campaign determinism contract: a sample is a pure function of (spec,
// point, trial), so identical duplicates are merged silently while a
// conflicting duplicate — same coordinates, different content — is
// always an error, because it can only mean corruption or an engine
// mismatch.

// SampleSet is a deduplicating, conflict-checking collection of samples
// recorded under one spec. It is not safe for concurrent use; callers
// serialize access (the cluster coordinator adds under its own lock).
type SampleSet struct {
	spec *Spec
	m    map[key]*Sample
}

// NewSampleSet returns an empty set for spec.
func NewSampleSet(spec *Spec) *SampleSet {
	return &SampleSet{spec: spec, m: make(map[key]*Sample)}
}

// Add records one sample. It returns added=false for a duplicate that is
// byte-for-byte identical to the recorded one (harmless: samples are
// pure functions of their coordinates), and an error for a sample with
// coordinates outside the spec grid, a point id contradicting the spec,
// or a conflicting duplicate — same (point, trial), different content —
// which indicates corruption or mixed engines, never a benign race.
func (ss *SampleSet) Add(s Sample) (added bool, err error) {
	if s.Point < 0 || s.Point >= len(ss.spec.Points) || s.Trial < 0 || s.Trial >= ss.spec.Trials {
		return false, fmt.Errorf("campaign: sample (point %d, trial %d) outside the %d-point × %d-trial grid",
			s.Point, s.Trial, len(ss.spec.Points), ss.spec.Trials)
	}
	if s.PointID != ss.spec.Points[s.Point].ID {
		return false, fmt.Errorf("campaign: sample for point %d carries id %q, spec says %q",
			s.Point, s.PointID, ss.spec.Points[s.Point].ID)
	}
	if prev, ok := ss.m[key{s.Point, s.Trial}]; ok {
		if *prev != s {
			return false, fmt.Errorf("campaign: conflicting duplicate for point %d trial %d: recorded %+v, got %+v (corruption or engine mismatch)",
				s.Point, s.Trial, *prev, s)
		}
		return false, nil
	}
	cp := s
	ss.m[key{s.Point, s.Trial}] = &cp
	return true, nil
}

// AddAll adds every sample, returning the ones actually new (in input
// order) or the first error.
func (ss *SampleSet) AddAll(samples []Sample) (added []*Sample, err error) {
	for _, s := range samples {
		ok, err := ss.Add(s)
		if err != nil {
			return nil, err
		}
		if ok {
			added = append(added, ss.m[key{s.Point, s.Trial}])
		}
	}
	return added, nil
}

// Len returns the number of distinct samples recorded.
func (ss *SampleSet) Len() int { return len(ss.m) }

// Sorted returns the samples in grid order (point, then trial) — the
// deterministic order used for wire encoding and checkpoint merges.
func (ss *SampleSet) Sorted() []Sample {
	keys := make([]key, 0, len(ss.m))
	for k := range ss.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].point != keys[j].point {
			return keys[i].point < keys[j].point
		}
		return keys[i].trial < keys[j].trial
	})
	out := make([]Sample, len(keys))
	for i, k := range keys {
		out[i] = *ss.m[k]
	}
	return out
}

// Report aggregates the recorded samples exactly like a live run does —
// the single BuildReport path — so a set assembled from distributed
// shard results renders byte-identically to a single-machine run that
// produced the same samples.
func (ss *SampleSet) Report() *Report { return BuildReport(ss.spec, ss.m) }

// Complete reports whether the recorded samples finish the whole
// campaign (every point's budget exhausted or adaptively stopped on its
// in-order prefix).
func (ss *SampleSet) Complete() bool { return campaignComplete(ss.spec, ss.m) }

// RangeComplete reports whether every point in [lo, hi) needs no more
// trials given the recorded in-order prefix. This is the shard
// completion check: a worker's result must complete its leased range,
// and a resuming coordinator re-derives shard state from it.
func (ss *SampleSet) RangeComplete(lo, hi int) bool {
	for p := lo; p < hi; p++ {
		agg := newPointAgg(ss.spec)
		for t := 0; t < ss.spec.Trials; t++ {
			s, ok := ss.m[key{p, t}]
			if !ok {
				break
			}
			agg.feed(s)
		}
		if !agg.done() {
			return false
		}
	}
	return true
}

// AppendTo appends samples to an open checkpoint. The caller flushes.
func (ss *SampleSet) AppendTo(ck *Checkpoint, samples []*Sample) {
	for _, s := range samples {
		ck.Append(s)
	}
}

// EncodeSamples renders samples as JSON Lines — one Sample object per
// line, in the order given — the wire format shard results travel in.
// Encode(Sorted()) is deterministic for a given set.
func EncodeSamples(samples []Sample) ([]byte, error) {
	var buf bytes.Buffer
	for i := range samples {
		b, err := json.Marshal(&samples[i])
		if err != nil {
			return nil, fmt.Errorf("campaign: encoding sample: %w", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// DecodeSamples parses a JSONL sample stream. Unlike the torn-tail
// tolerant checkpoint loader, the wire decoder is strict: a malformed
// line fails the whole decode, because a shard result travels over HTTP
// with its integrity intact or not at all.
func DecodeSamples(b []byte) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("campaign: decoding sample line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: scanning sample stream: %w", err)
	}
	return out, nil
}

// EngineTag returns the Manifest.Engine tag every run of spec records —
// the value a cluster coordinator stamps on its own checkpoint, so its
// shards and a local run of the spec draw the same randomness stream:
// EngineLanes when at least one point is lane batched, EngineScalar when
// every trial runs on the scalar engine (lane-insensitive specs, whose
// values no engine choice could change).
func EngineTag(spec *Spec) string {
	if spec.laneSensitive() {
		return EngineLanes
	}
	return EngineScalar
}
