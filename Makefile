# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet lint archlint bench bench-record experiments results-check verify cover race campaign-smoke fuzz-smoke serve-smoke cluster-smoke clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# What the CI lint job runs: vet, gofmt cleanliness, and the
# execution-layer boundary check (engines are only constructed inside
# internal/exec; see scripts/archlint.sh).
lint: vet archlint
	test -z "$$(gofmt -l .)"

archlint:
	./scripts/archlint.sh

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem ./...

# Regenerate BENCH_3.json … BENCH_6.json: run the scalar reference, the
# lane and the schedule-builder benchmarks, then let scripts/benchrecord
# parse the output, enforce each record's acceptance bar (BENCH_3: >= 6x
# vs BENCH_2's recorded scalar trial cost; BENCH_4: facade overhead;
# BENCH_5: facade overhead and B/op at -cpu 1,2; BENCH_6: schedule build
# <= 3x its replay) and write the records. Override DATE / BENCH5_DATE to
# restamp (same input + same date => same JSON, so regeneration is
# diffable).
DATE ?= 2026-08-08
BENCH5_DATE ?= 2026-10-17
bench-record:
	go test -run '^$$' -bench 'BenchmarkBroadcastReuse$$|BenchmarkLaneBroadcast$$|BenchmarkLaneBroadcastSmall$$' \
		-benchmem -benchtime 2s . > /tmp/bench-record.out
	go run ./scripts/benchrecord -in /tmp/bench-record.out -date $(DATE) \
		-comment "PR 8 acceptance record: bit-parallel lane engine (internal/lanes) vs the scalar sampled fast path. The headline metric is BenchmarkLaneBroadcast ns/trial (64 lane-parallel trials per op) against BENCH_2's per-trial scalar cost on the same n=100000 d=25 connected Gnp workload." \
		-ref-name "BenchmarkBroadcastReuse in BENCH_2.json (scalar sampled fast path, same workload and machine)" \
		-ref-ns 36789982 -accept-ratio 6 -out BENCH_3.json
	go test -run '^$$' -bench 'BenchmarkLaneBroadcast$$|BenchmarkFacadeRunBatch$$' \
		-benchmem -benchtime 2s . > /tmp/bench-record-exec.out
	go run ./scripts/benchrecord -in /tmp/bench-record-exec.out -date $(DATE) \
		-comment "PR 10 acceptance record: facade RunBatch through the unified execution layer (internal/exec) vs the raw lane engine on the same n=100000 d=25 workload, same run. The gate is same-run executor overhead (BenchmarkFacadeRunBatch ns/trial over BenchmarkLaneBroadcast ns/trial), which is portable across machines; a regression that drops the batch path off the lane backend lands near the 7x scalar cost, far above the bar." \
		-lane-bench BenchmarkFacadeRunBatch -base-bench BenchmarkLaneBroadcast \
		-max-overhead 1.25 -out BENCH_4.json
	go test -run '^$$' -bench 'BenchmarkLaneBroadcast$$|BenchmarkFacadeRunBatch$$' \
		-benchmem -benchtime 2s -cpu 1,2 . > /tmp/bench-record-pool.out
	go run ./scripts/benchrecord -in /tmp/bench-record-pool.out -date $(BENCH5_DATE) \
		-comment "Lane-batch sharding and pooling record: facade RunBatch (balanced lane blocks on every core, pooled lane engines, one eligible-list arena per engine) vs the raw lane engine on the same n=100000 d=25 workload, same run, at GOMAXPROCS 1 and 2. The gates are same-run ratios per GOMAXPROCS value: ns/trial overhead <= 1.25x and B/op <= 1.1x of the raw engine's (BENCH_4 had the facade at 133.8 MB/op against 21.7 MB/op)." \
		-lane-bench BenchmarkFacadeRunBatch -base-bench BenchmarkLaneBroadcast \
		-max-overhead 1.25 -max-bytes-ratio 1.1 -out BENCH_5.json
	go test -run '^$$' -bench 'BenchmarkSubstrateCentralizedBuild$$|BenchmarkSubstrateCentralizedReplay$$' \
		-benchmem -benchtime 2s . > /tmp/bench-record-build.out
	go run ./scripts/benchrecord -in /tmp/bench-record-build.out -date 2026-10-17 \
		-comment "Theorem 5 schedule builder record: BuildCentralizedSchedule (one BFS per build, sort-and-scan greedy independent covers on dense scratch) vs radio.ExecuteSchedule replaying the same schedules on the same n=20000 d=2ln(n) connected Gnp, same run. The builder simulates the radio model while it emits, so replay is its floor; the gate is the same-run ns/op ratio build/replay <= 3x (the map-based greedy cover measured 7-16x)." \
		-lane-bench BenchmarkSubstrateCentralizedBuild -base-bench BenchmarkSubstrateCentralizedReplay \
		-max-overhead 3 -n 20000 -d 19.81 -out BENCH_6.json
	@echo "bench-record: wrote BENCH_3.json, BENCH_4.json, BENCH_5.json and BENCH_6.json"

# Regenerate the EXPERIMENTS.md tables (medium scale, recorded seed).
experiments:
	go run ./cmd/experiments -scale medium -seed 2006

# Regenerate the medium-scale tables and diff them against the checked-in
# results/medium.txt, ignoring the per-experiment "(E.., scale=medium,
# N.Ns)" timing lines. The output does not depend on GOMAXPROCS.
TIMING_LINES = '^ *\(E[0-9]+, scale=medium, [0-9.]+s\)$$'
results-check:
	go run ./cmd/experiments -scale medium -seed 2006 | grep -vE $(TIMING_LINES) > /tmp/results-check.txt
	grep -vE $(TIMING_LINES) results/medium.txt | diff -u - /tmp/results-check.txt
	@echo "results-check: results/medium.txt matches the regenerated output"

# Machine-checkable reproduction scorecard: one pass/fail per claim.
verify:
	go run ./cmd/experiments -verify -seed 2006

# Kill-and-resume smoke test of the campaign runner: run a tiny campaign
# to completion, then re-run it interrupted after 3 samples and resume
# from the checkpoint — the two -json reports must be byte-identical, and
# the offline `campaign report` must agree.
campaign-smoke:
	rm -rf /tmp/campaign-smoke && mkdir -p /tmp/campaign-smoke
	go run ./cmd/campaign spec -preset smoke -seed 2006 > /tmp/campaign-smoke/spec.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/full -quiet -json > /tmp/campaign-smoke/full.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/ck -halt-after 3 -quiet -json > /tmp/campaign-smoke/partial.json
	go run ./cmd/campaign run -spec /tmp/campaign-smoke/spec.json -out /tmp/campaign-smoke/ck -resume -quiet -json > /tmp/campaign-smoke/resumed.json
	cmp /tmp/campaign-smoke/full.json /tmp/campaign-smoke/resumed.json
	go run ./cmd/campaign report -out /tmp/campaign-smoke/ck -json > /tmp/campaign-smoke/offline.json
	cmp /tmp/campaign-smoke/full.json /tmp/campaign-smoke/offline.json
	@echo "campaign-smoke: resume converged to the uninterrupted report"

# End-to-end smoke test of the radiosimd daemon: build the binary, boot
# it on a random port, fire a run, a JSONL stream and a metrics scrape
# over real HTTP (asserting the graph-cache hit), then SIGTERM and
# require a clean drain with exit code 0.
serve-smoke:
	go test -run '^TestDaemonSmoke$$' -count=1 -v ./cmd/radiosimd/

# End-to-end smoke test of the cluster subsystem: build the campaign and
# radiosimd binaries, boot a coordinator plus two workers, SIGKILL one
# worker while it holds a lease mid-shard, and require the distributed
# report to be byte-identical to a local single-process run — the lease
# must expire and the shard be reassigned to the surviving worker.
cluster-smoke:
	go test -run '^TestClusterSmoke$$' -count=1 -v ./cmd/campaign/

# Short mutation run of every native fuzz target (go's one-fuzz-target-
# per-invocation limit forces the loop). The checked-in seed corpora under
# testdata/fuzz run on every plain `go test`; this additionally mutates.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzGraphBuild$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzSubgraph$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzReadSchedule$$' -fuzztime 10s ./internal/radio/
	go test -run '^$$' -fuzz '^FuzzLoadSamples$$' -fuzztime 10s ./internal/campaign/
	go test -run '^$$' -fuzz '^FuzzGreedyIndependentCover$$' -fuzztime 10s ./internal/structure/

clean:
	go clean ./...
