#!/bin/sh
# archlint: enforce the execution-layer boundary (DESIGN.md section 10)
# and the single transmitter chooser (DESIGN.md section 5).
#
# Engine construction — lanes.NewEngine, radio.NewEngine,
# radio.NewEngineMulti, repro.NewEngine — is the unified execution
# layer's job. Consumers (the facade run, batch and extension paths,
# sweep, the experiments, campaign, serve, cluster and the CLIs) must go
# through internal/exec so backend selection, pooling and counters stay
# in one place. This script fails if any non-test file in a consumer
# layer constructs an engine directly.
#
# Deliberately exempt:
#   - internal/exec itself (the one legitimate construction site)
#   - _test.go files (tests build reference engines to diff against)
#   - internal/oracle (the differential oracle must build engines
#     independently of the layer it is checking)
#   - the radio.go facade constructor (NewEngine is public API; the lint
#     guards the run paths, not the constructor export)
#   - the Section 2 schedule builders and searches in internal/core,
#     internal/lower and internal/geo: they use an engine as an
#     informed-set tracker while they construct a schedule round by
#     round, not as a trial runner (lower's searches hand their one
#     engine to exec through Request.Engine to run their trials)
#
# The sampled transmit-set draw — Binomial count, then PartialShuffle
# over an eligible list — is radio.Chooser's job. The script also fails
# if any non-test file outside internal/radio and internal/xrand (which
# defines PartialShuffle) calls PartialShuffle, so simulators draw their
# transmit sets through the chooser instead of a copy of it.

set -eu
cd "$(dirname "$0")/.."

scan() {
	# $1: description, $2...: files/dirs to scan (missing ones skipped)
	desc=$1
	shift
	set -- $(for f in "$@"; do [ -e "$f" ] && printf '%s\n' "$f"; done)
	[ $# -eq 0 ] && return 0
	grep -rnE --include='*.go' --exclude='*_test.go' \
		'(lanes|radio|repro)\.NewEngine(Multi)?\(' "$@" || return 0
	echo "archlint: $desc must not construct engines directly; route through internal/exec" >&2
	return 1
}

fail=0
scan "the facade run paths (batch.go, options.go, extensions.go)" batch.go options.go extensions.go || fail=1
scan "internal/sweep" internal/sweep || fail=1
scan "internal/exp" internal/exp || fail=1
scan "cmd/" cmd || fail=1
scan "internal/campaign" internal/campaign || fail=1
scan "internal/serve" internal/serve || fail=1
scan "internal/cluster" internal/cluster || fail=1

sampler=$(grep -rnE --include='*.go' --exclude='*_test.go' 'PartialShuffle\(' . |
	grep -vE '^\./internal/(radio|xrand)/' || true)
if [ -n "$sampler" ]; then
	printf '%s\n' "$sampler"
	echo "archlint: only internal/radio may call PartialShuffle; draw transmit sets through radio.Chooser" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "archlint: ok (no engine construction outside internal/exec, no transmit-set sampler outside internal/radio)"
