package radio

// The transmitter chooser: the per-round transmit decision of the
// distributed model (Theorem 7), coded once. The engine's protocol
// runner, the CD runner, gossip and pipeline all draw their transmit sets
// through it.

import (
	"slices"

	"repro/internal/xrand"
)

// Chooser draws each round's transmit set for a Protocol over an informed
// set given as informedAt (the round each node was informed, NotInformed
// for nodes that were not). A uniform round of a UniformProtocol draws
// k ~ Binomial(|cohort|, q) transmitters by partial Fisher–Yates over
// chooser-owned eligible lists — O(k) instead of one coin per informed
// node; every other round asks each informed node in index order. The
// eligible lists are rebuilt lazily at the start of each run and appended
// from the newly informed nodes after every round (see Informed), so
// steady-state rounds allocate nothing. The zero value is ready to use; a
// Chooser is not safe for concurrent use.
//
// The sampled stream depends on the eligible lists' history: each list
// starts in index order and the same in-place shuffle persists across
// the rounds of a run.
type Chooser struct {
	p       Protocol
	up      UniformProtocol // p's uniform capability, nil on the per-node path
	perNode bool            // opt-out: force per-node Transmit calls
	tx      []int32         // per-node transmit set

	all      []int32 // every informed node, in informed order
	allOK    bool
	cohort   []int32 // informed nodes with informedAt <= cutoff
	cutoff   int32
	cohortOK bool
}

// Begin starts a run of p. The eligible lists are rebuilt from the
// informed set on their first use in the run, so the informed set may
// have changed arbitrarily since the previous run.
func (c *Chooser) Begin(p Protocol) {
	c.p = p
	c.up, _ = p.(UniformProtocol)
	if c.perNode {
		c.up = nil
	}
	c.allOK, c.cohortOK = false, false
}

// Choose returns the transmit set of the given round (numbered from 1):
// duplicate-free, informed nodes only. The slice is chooser scratch,
// valid until the next Choose or Informed call.
func (c *Chooser) Choose(round int, informedAt []int32, rng *xrand.Rand) []int32 {
	if c.up != nil {
		if q, cohort, ok := c.up.RoundProb(round); ok {
			return c.sample(q, cohort, informedAt, rng)
		}
	}
	tx := c.tx[:0]
	for v, at := range informedAt {
		if at != NotInformed && c.p.Transmit(int32(v), round, at, rng) {
			tx = append(tx, int32(v))
		}
	}
	c.tx = tx
	return tx
}

// Informed folds the nodes newly informed in round into the eligible
// lists. Callers whose informed set never grows need not call it.
func (c *Chooser) Informed(round int, newly []int32) {
	if c.allOK {
		c.all = append(c.all, newly...)
	}
	if c.cohortOK && int32(round) <= c.cutoff {
		c.cohort = append(c.cohort, newly...)
	}
}

// sample draws a uniform round's transmitter set: every cohort member
// independently with probability q, realised as one Binomial(|cohort|, q)
// draw plus a partial Fisher–Yates over the eligible list. The returned
// slice aliases that list.
func (c *Chooser) sample(q float64, cohort Cohort, informedAt []int32, rng *xrand.Rand) []int32 {
	elig := c.eligible(cohort, informedAt)
	if q >= 1 {
		return elig
	}
	if q <= 0 {
		return elig[:0]
	}
	k := rng.Binomial(len(elig), q)
	rng.PartialShuffle(elig, k)
	return elig[:k]
}

// eligible returns the list of cohort members, rebuilding it in index
// order on first use in a run (or when the requested cutoff changes);
// Informed keeps it current afterwards. sample permutes it in place, so
// past the rebuild each list is maintained purely as a set.
func (c *Chooser) eligible(cohort Cohort, informedAt []int32) []int32 {
	if !cohort.restricted {
		if !c.allOK {
			// Every node may end up informed: size the list once.
			c.all = slices.Grow(c.all[:0], len(informedAt))
			for v, at := range informedAt {
				if at != NotInformed {
					c.all = append(c.all, int32(v))
				}
			}
			c.allOK = true
		}
		return c.all
	}
	if !c.cohortOK || c.cutoff != cohort.cutoff {
		c.cohort = c.cohort[:0]
		for v, at := range informedAt {
			if at != NotInformed && at <= cohort.cutoff {
				c.cohort = append(c.cohort, int32(v))
			}
		}
		c.cutoff = cohort.cutoff
		c.cohortOK = true
	}
	return c.cohort
}
