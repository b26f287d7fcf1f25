// Package protocols implements the distributed radio-broadcast baselines
// the paper's protocol is compared against in experiment E5:
//
//   - Decay — the classical randomized protocol of Bar-Yehuda, Goldreich
//     and Itai (1992) for unknown topologies, O((D + log n)·log n) rounds.
//   - ALOHA — p-persistent transmission: every informed node transmits
//     with a fixed probability each round.
//   - Flood — every informed node transmits every round; on radio networks
//     this deadlocks as soon as two neighbours of an uninformed node are
//     informed (kept as a cautionary baseline).
//   - Phased — a short flood, then ALOHA: the shape of the paper's
//     distributed protocol that the gossip and k-broadcast extensions
//     use (see gossip.NewPhased and pipeline.NewPhased).
//   - RoundRobin — deterministic ID-based time division: node v transmits
//     in rounds ≡ v (mod n); collision-free but Θ(n·D) rounds.
//
// All types implement radio.Protocol.
package protocols

import (
	"math"

	"repro/internal/radio"
	"repro/internal/xrand"
)

// Decay is the Bar-Yehuda–Goldreich–Itai protocol. Time is divided into
// epochs of Phases rounds. In round k of an epoch every informed node
// transmits with probability 2^{-k}: early rounds push through sparse
// neighbourhoods, late rounds resolve dense ones.
type Decay struct {
	// Phases is the epoch length, canonically ⌈log₂ n⌉.
	Phases int
}

// NewDecay returns the protocol with the canonical epoch length for n
// nodes.
func NewDecay(n int) *Decay {
	ph := int(math.Ceil(math.Log2(float64(n) + 1)))
	if ph < 1 {
		ph = 1
	}
	return &Decay{Phases: ph}
}

// Transmit implements radio.Protocol.
func (d *Decay) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	k := (round - 1) % d.Phases // k = 0, 1, ..., Phases-1
	return rng.Bernoulli(math.Pow(2, -float64(k)))
}

// RoundProb implements radio.UniformProtocol: every Decay round is
// uniform over all informed nodes with the epoch-position rate 2^{-k}.
func (d *Decay) RoundProb(round int) (float64, radio.Cohort, bool) {
	k := (round - 1) % d.Phases
	return math.Pow(2, -float64(k)), radio.AllInformed, true
}

// Aloha transmits with a fixed probability P every round.
type Aloha struct {
	P float64
}

// NewAloha returns the protocol with the degree-matched rate 1/d, the
// throughput-optimal choice when every uninformed node has about d
// informed neighbours.
func NewAloha(d float64) *Aloha {
	if d < 1 {
		d = 1
	}
	return &Aloha{P: 1 / d}
}

// Transmit implements radio.Protocol.
func (a *Aloha) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return rng.Bernoulli(a.P)
}

// RoundProb implements radio.UniformProtocol: every ALOHA round is
// uniform over all informed nodes at the fixed rate P.
func (a *Aloha) RoundProb(round int) (float64, radio.Cohort, bool) {
	return a.P, radio.AllInformed, true
}

// Flood transmits deterministically every round.
type Flood struct{}

// Transmit implements radio.Protocol.
func (Flood) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return true
}

// RoundProb implements radio.UniformProtocol with q = 1: the sampled
// path selects every informed node, exactly the deterministic flood, and
// consumes no randomness on either path.
func (Flood) RoundProb(round int) (float64, radio.Cohort, bool) {
	return 1, radio.AllInformed, true
}

// Phased transmits deterministically in rounds 1..FloodRounds and with
// probability Q in every later round.
type Phased struct {
	FloodRounds int
	Q           float64
}

// Transmit implements radio.Protocol.
func (p Phased) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	if round <= p.FloodRounds {
		return true
	}
	return rng.Bernoulli(p.Q)
}

// RoundProb implements radio.UniformProtocol: flood rounds are uniform
// over all informed nodes at 1, later rounds at Q.
func (p Phased) RoundProb(round int) (float64, radio.Cohort, bool) {
	if round <= p.FloodRounds {
		return 1, radio.AllInformed, true
	}
	return p.Q, radio.AllInformed, true
}

// RoundRobin gives each node a private slot: node v transmits in rounds
// r with (r-1) mod N == v. Collision-free and deterministic, hence a
// correct (if very slow) broadcast on any connected graph.
type RoundRobin struct {
	N int
}

// Transmit implements radio.Protocol.
func (rr *RoundRobin) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return int32((round-1)%rr.N) == v
}

// Compile-time interface checks. Decay, Aloha, Flood and Phased declare
// uniform rounds (radio.UniformProtocol), so protocol runners sample
// their transmitter sets in O(k); RoundRobin's rounds are ID-dependent
// and stay on the per-node path.
var (
	_ radio.UniformProtocol = (*Decay)(nil)
	_ radio.UniformProtocol = (*Aloha)(nil)
	_ radio.UniformProtocol = Flood{}
	_ radio.UniformProtocol = Phased{}
	_ radio.Protocol        = (*RoundRobin)(nil)
)
