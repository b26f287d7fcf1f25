package radio

// The collision-detection (CD) model variant. The paper's model gives
// listeners NO collision detection: a collision is indistinguishable from
// silence. The CD variant — equally standard in the radio-network
// literature — lets a listening node distinguish silence, a clean message
// and a collision. RunFeedbackProtocol simulates that model; protocols
// receive their previous round's observation and can adapt (see
// protocols.Backoff for a knowledge-free protocol built on it, and
// experiment E19 for the comparison).

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Feedback is what a node observed in a round.
type Feedback uint8

const (
	// FeedbackNone: the node transmitted, so it heard nothing (radios are
	// half-duplex in this model).
	FeedbackNone Feedback = iota
	// FeedbackSilence: listening, no transmitting neighbour.
	FeedbackSilence
	// FeedbackMessage: listening, exactly one transmitting neighbour.
	FeedbackMessage
	// FeedbackCollision: listening, two or more transmitting neighbours.
	// Only distinguishable from silence in the CD model.
	FeedbackCollision
)

// String names the feedback value.
func (f Feedback) String() string {
	switch f {
	case FeedbackNone:
		return "none"
	case FeedbackSilence:
		return "silence"
	case FeedbackMessage:
		return "message"
	case FeedbackCollision:
		return "collision"
	default:
		return "invalid"
	}
}

// FeedbackProtocol is a distributed protocol in the CD model: the decision
// may additionally use the node's observation from the previous round.
type FeedbackProtocol interface {
	// TransmitCD reports whether informed node v transmits in the given
	// round. prev is v's observation from the previous round
	// (FeedbackSilence before round 1).
	TransmitCD(v int32, round int, informedAt int32, prev Feedback, rng *xrand.Rand) bool
}

// RoundWithFeedback executes one round like Round and additionally fills
// fb (length n) with every node's observation, read from the same
// reception pass: the kernel lists collided listeners in every round, so
// the CD model needs no state of its own. It returns the newly informed
// nodes; on error fb is all silence.
func (e *Engine) RoundWithFeedback(transmitters []int32, fb []Feedback) ([]int32, error) {
	if len(fb) != e.g.N() {
		panic("radio: feedback slice has wrong length")
	}
	for i := range fb {
		fb[i] = FeedbackSilence
	}
	newly, err := e.Round(transmitters)
	if err != nil {
		return nil, err
	}
	for _, w := range e.rx.Clean {
		fb[w] = FeedbackMessage
	}
	for _, w := range e.rx.Collided {
		fb[w] = FeedbackCollision
	}
	for _, v := range e.txList {
		fb[v] = FeedbackNone
	}
	return newly, nil
}

// RunCDProtocol simulates a CD-model protocol from src on a fresh engine
// over g for at most maxRounds rounds, stopping early on completion. The
// CD model is not an internal/exec backend yet, so it keeps this one
// self-contained runner; its per-node decisions go through a Chooser
// with a ProtocolFunc that hands each node its previous observation.
func RunCDProtocol(g *graph.Graph, src int32, p FeedbackProtocol, maxRounds int, rng *xrand.Rand) Result {
	e := NewEngine(g, src, StrictInformed)
	n := g.N()
	fb := make([]Feedback, n)
	for i := range fb {
		fb[i] = FeedbackSilence
	}
	next := make([]Feedback, n)
	var ch Chooser
	ch.Begin(ProtocolFunc(func(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
		return p.TransmitCD(v, round, informedAt, fb[v], rng)
	}))
	for e.round < maxRounds && !e.Done() {
		if _, err := e.RoundWithFeedback(ch.Choose(e.round+1, e.informedAt, rng), next); err != nil {
			panic(err) // only informed nodes are offered
		}
		fb, next = next, fb
	}
	return e.Result()
}
