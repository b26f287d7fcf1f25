// Package gossip implements GOSSIPING (all-to-all broadcast) in the radio
// model — the natural follow-up problem the paper's conclusions point to
// ("open problems" in radio communication in random graphs): every node
// starts with its own rumor, transmissions carry every rumor the sender
// currently knows, and the task completes when every node knows every
// rumor.
//
// Collision semantics are identical to broadcasting: rounds go through
// package radio's reception kernel, so a listening node receives the
// transmission iff exactly one of its neighbours transmits, and transmit
// sets come from its transmitter chooser, so any radio.Protocol gossips.
//
// The package provides the simulation engine plus NewPhased: flooding
// for the first few rounds (spread the union fast in sparse
// neighbourhoods), then every node transmits with probability 1/d — the
// direct adaptation of the paper's Theorem 7 protocol to gossiping.
// Any broadcast protocol gossips unchanged; experiment E13 compares
// NewPhased on G(n,p) with two from package protocols: RoundRobin (node
// v transmits alone in rounds ≡ v (mod n); collision-free, completes in
// ≤ n·D rounds on any connected graph) and Aloha (every node transmits
// with probability q each round, the gossip analogue of the paper's
// 1/d-selective rounds). Random-graph gossiping with q = 1/d completes
// in O(n/d + ln n)·polylog-ish time in practice because each clean
// reception merges whole rumor sets; the experiment records the
// measured shape.
package gossip

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// NewPhased returns the phased gossip protocol sized for a graph with n
// nodes and expected degree d: flood for ~log_d n rounds, mirroring
// NewDistributedProtocol's phase lengths, then behave like Aloha at 1/d —
// the gossiping analogue of the paper's distributed broadcast protocol.
func NewPhased(n int, d float64) protocols.Phased {
	if d < 2 {
		d = 2
	}
	f := 0
	if n > 2 {
		f = int(math.Floor(math.Log(float64(n)) / math.Log(d)))
	}
	if f < 1 {
		f = 1
	}
	return protocols.Phased{FloodRounds: f, Q: 1 / d}
}

// Result reports a gossip run.
type Result struct {
	Completed bool
	Rounds    int
	// KnownTotal is the sum over nodes of rumors known at the end (n²
	// when complete).
	KnownTotal int64
	// MinKnown is the smallest per-node rumor count at the end.
	MinKnown int
}

// Run simulates gossiping on g under protocol p for at most maxRounds
// rounds. Every node starts knowing exactly its own rumor, so every node
// is informed at round 0 and may transmit from round 1: p sees
// informedAt = 0 throughout. Rumor sets are merged on every clean
// reception.
//
// Transmit sets come from a radio.Chooser. When p implements
// radio.UniformProtocol (Uniform and NewPhased's protocol do, with
// cohort radio.AllInformed), uniform rounds draw their transmitter set by
// binomial sampling instead of n per-node coin flips; wrap the
// protocol's Transmit in a radio.ProtocolFunc to force the per-node path
// (same distribution, the pre-fast-path randomness stream).
//
// Memory is one n-bit set per node (n²/8 bytes total): n = 16384 needs
// 32 MiB. Completion requires g to be connected.
func Run(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand) Result {
	return RunObserved(g, p, maxRounds, rng, nil)
}

// RunObserved is Run with a trace observer receiving one record per round
// (nil obs behaves exactly like Run; the observer consumes no randomness).
// In the gossip reading of the record, Successes counts clean receptions,
// NewlyInformed counts nodes that completed their rumor set this round,
// and Informed is the cumulative count of such complete nodes.
func RunObserved(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand, obs trace.Observer) Result {
	n := g.N()
	know := make([]*bitset.Set, n)
	counts := make([]int, n)
	for v := range know {
		know[v] = bitset.New(n)
		know[v].Set(v)
		counts[v] = 1
	}
	complete := 0 // nodes knowing all rumors
	if n == 1 {
		complete = 1
	}

	if obs != nil {
		obs.BeginRun(trace.RunInfo{N: n, M: g.M(), Sources: n, MaxRounds: maxRounds})
	}
	var rx radio.Reception
	var ch radio.Chooser
	ch.Begin(p)
	informedAt := make([]int32, n) // all 0: the informed set never grows
	round := 0
	var totals trace.Counters
	for round < maxRounds && complete < n {
		round++
		tx := ch.Choose(round, informedAt, rng)
		rx.ReceiveFrom(g, tx)
		newlyComplete := 0
		for i, w := range rx.Clean {
			if counts[w] == n {
				continue
			}
			know[w].Union(know[rx.Senders[i]])
			c := know[w].Count()
			if c == n {
				complete++
				newlyComplete++
			}
			counts[w] = c
		}
		successes, collisions := len(rx.Clean), len(rx.Collided)
		rec := trace.RoundRecord{
			Round:         round,
			Transmitters:  len(tx),
			Successes:     successes,
			Collisions:    collisions,
			Silent:        n - len(tx) - successes - collisions,
			NewlyInformed: newlyComplete,
			Informed:      complete,
		}
		totals.Apply(rec)
		if obs != nil {
			obs.Round(rec)
		}
	}
	if obs != nil {
		obs.EndRun(trace.Summary{
			Completed:     complete == n,
			Rounds:        round,
			Informed:      complete,
			N:             n,
			Transmissions: totals.Transmissions,
			Successes:     totals.Successes,
			Collisions:    totals.Collisions,
			NewlyInformed: totals.NewlyInformed,
		})
	}

	res := Result{Completed: complete == n, Rounds: round, MinKnown: n}
	for _, c := range counts {
		res.KnownTotal += int64(c)
		if c < res.MinKnown {
			res.MinKnown = c
		}
	}
	if n == 0 {
		res.MinKnown = 0
		res.Completed = true
	}
	return res
}

// Time runs the protocol and returns the completion round, or maxRounds+1
// if gossiping did not finish.
func Time(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand) int {
	res := Run(g, p, maxRounds, rng)
	if !res.Completed {
		return maxRounds + 1
	}
	return res.Rounds
}
