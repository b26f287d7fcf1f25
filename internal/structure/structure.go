// Package structure implements the combinatorial objects and measurements
// of Section 2 of the paper: independent matchings, (minimal and
// independent) coverings between vertex sets (Definition 1, Proposition 2,
// Lemma 4), and BFS-layer statistics quantifying the "almost tree"
// structure of random graphs (Lemma 3).
//
// These are both the building blocks of the centralized broadcasting
// schedule (Theorem 5 finishes with independent covers) and the subject of
// the structural experiments E7/E8.
//
// The cover and matching constructions keep their vertex sets and
// counters in dense vertex-indexed arrays, not hash maps.
// Scratch.GreedyIndependentCover is the schedule builder's
// allocation-free greedy cover kernel on reusable, epoch-stamped scratch:
// the greedy's argmax loop reduces to one stable order (target degree
// descending) and one scan, O(Σdeg + k log k) for k useful candidates (see
// its doc comment for the equivalence argument). GreedyIndependentCover is
// a thin wrapper over it plus EvaluateCover.
package structure

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Cover is the result of a covering construction from a candidate set X
// onto a target set Y.
type Cover struct {
	// Transmitters holds the chosen subset of X.
	Transmitters []int32
	// Covered holds the nodes of Y adjacent to exactly one transmitter
	// (received cleanly in radio terms).
	Covered []int32
	// Collided holds the nodes of Y adjacent to two or more transmitters.
	Collided []int32
	// Missed holds the nodes of Y adjacent to no transmitter.
	Missed []int32
}

// CoveredFraction returns |Covered| / |Y|, or 1 for empty Y.
func (c *Cover) CoveredFraction() float64 {
	total := len(c.Covered) + len(c.Collided) + len(c.Missed)
	if total == 0 {
		return 1
	}
	return float64(len(c.Covered)) / float64(total)
}

// RandomizedCover implements the probabilistic construction in the proof of
// Lemma 4: each x ∈ X joins the transmitter set S independently with
// probability q, and a node y ∈ Y is covered iff it has exactly one
// neighbour in S. With q = 1/d the lemma guarantees Ω(|Y|) covered nodes
// w.h.p. when |X| = Θ(n) and |X|/|Y| = Ω(1).
func RandomizedCover(g *graph.Graph, x, y []int32, q float64, rng *xrand.Rand) *Cover {
	s := rng.SubsetEach(nil, x, q)
	return EvaluateCover(g, s, y)
}

// EvaluateCover classifies each node of y by its number of neighbours in
// the transmitter set s.
func EvaluateCover(g *graph.Graph, s, y []int32) *Cover {
	inS := make([]bool, g.N())
	for _, v := range s {
		inS[v] = true
	}
	c := &Cover{Transmitters: s}
	for _, w := range y {
		count := 0
		for _, nb := range g.Neighbors(w) {
			if inS[nb] {
				count++
				if count >= 2 {
					break
				}
			}
		}
		switch count {
		case 0:
			c.Missed = append(c.Missed, w)
		case 1:
			c.Covered = append(c.Covered, w)
		default:
			c.Collided = append(c.Collided, w)
		}
	}
	return c
}

// GreedyIndependentCover builds a transmitter set X' ⊆ X such that every
// covered node of Y has exactly one neighbour in X', greedily: it
// repeatedly accepts the first candidate of X (in x order) with the most
// uncovered Y-neighbours among those that give no already-covered node of
// Y a second neighbour. The result is an independent covering of the
// covered subset of Y (Definition 1).
//
// This deterministic construction is used by the tail of the centralized
// schedule, where only a handful of nodes remain uninformed and the
// randomized construction would waste rounds.
func GreedyIndependentCover(g *graph.Graph, x, y []int32) *Cover {
	tx := NewScratch(g.N()).GreedyIndependentCover(g, x, y, make([]int32, 0, len(y)))
	return EvaluateCover(g, tx, y)
}

// GreedyIndependentCover is the greedy cover kernel: it appends the
// transmitters of GreedyIndependentCover(g, x, y) to dst and returns it,
// without classifying y. It allocates nothing once dst and the scratch
// have grown to size.
//
// The greedy's argmax loop collapses to one sort and one scan. A candidate
// stays acceptable only while none of its Y-neighbours is covered, so an
// acceptable candidate's gain is always its full Y-degree |N(c) ∩ Y|,
// which never changes, and a candidate that stops being acceptable never
// becomes acceptable again. "The first acceptable candidate of largest
// gain" is therefore the first still-acceptable candidate in the order
// (Y-degree descending, x position ascending), and successive picks come
// in that order. Sorting once and scanning once accepts exactly the same
// candidates in the same order, in O(Σdeg + k log k) for k candidates of
// positive Y-degree.
func (sc *Scratch) GreedyIndependentCover(g *graph.Graph, x, y []int32, dst []int32) []int32 {
	sc.fit(g.N())
	inY := sc.stamps(2) // y ∈ Y, not yet covered
	covered := inY + 1  // y ∈ Y, has an accepted neighbour
	mark := sc.mark
	for _, w := range y {
		mark[w] = inY
	}
	// Each key packs (MaxUint32 − Y-degree, x position): keys are unique, so
	// an ascending sort is the stable Y-degree-descending order.
	keys := sc.keys[:0]
	for i, c := range x {
		deg := 0
		for _, w := range g.Neighbors(c) {
			if mark[w] == inY {
				deg++
			}
		}
		if deg > 0 {
			keys = append(keys, uint64(math.MaxUint32-uint32(deg))<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	sc.keys = keys
scan:
	for _, k := range keys {
		c := x[uint32(k)]
		nbrs := g.Neighbors(c)
		for _, w := range nbrs {
			if mark[w] == covered {
				continue scan
			}
		}
		dst = append(dst, c)
		for _, w := range nbrs {
			if mark[w] == inY {
				mark[w] = covered
			}
		}
	}
	return dst
}

// Matching is a set of vertex-disjoint edges between X and Y.
type Matching struct {
	// Pairs[i] = {x, y} with x ∈ X, y ∈ Y.
	Pairs [][2]int32
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int { return len(m.Pairs) }

// IsIndependent verifies Definition 1: for any two pairs (u,v), (u',v') of
// the matching, (u,v') and (u',v) are NOT edges of g.
func (m *Matching) IsIndependent(g *graph.Graph) bool {
	for i, p := range m.Pairs {
		for j, q := range m.Pairs {
			if i == j {
				continue
			}
			if g.HasEdge(p[0], q[1]) {
				return false
			}
		}
	}
	return true
}

// GreedyIndependentMatching builds an independent matching between X and Y
// greedily: scan y ∈ Y and match y to the first neighbour x ∈ X that keeps
// the matching independent. The construction mirrors the proof of the
// second statement of Lemma 4: when |X|/|Y| = Ω(d²) almost every y finds
// a private neighbour.
func GreedyIndependentMatching(g *graph.Graph, x, y []int32) *Matching {
	const (
		inX      = 1 // x ∈ X, unmatched
		matchedX = 2
	)
	xState := make([]uint8, g.N())
	matchedY := make([]bool, g.N())
	for _, v := range x {
		xState[v] = inX
	}
	m := &Matching{}
	for _, w := range y {
		// Independence (Definition 1) for the new pair (x, w) against the
		// pairs matched so far: w has no edge to a matched x, and x has
		// no edge to a matched y other than w. Later pairs check against
		// (x, w) the same way, so every pair of pairs is checked once.
		if matchedY[w] {
			continue
		}
		wOK := true
		for _, nb := range g.Neighbors(w) {
			if xState[nb] == matchedX {
				wOK = false
				break
			}
		}
		if !wOK {
			continue
		}
		for _, cand := range g.Neighbors(w) {
			if xState[cand] != inX {
				continue
			}
			ok := true
			for _, nb := range g.Neighbors(cand) {
				if nb != w && matchedY[nb] {
					ok = false
					break
				}
			}
			if ok {
				xState[cand] = matchedX
				matchedY[w] = true
				m.Pairs = append(m.Pairs, [2]int32{cand, w})
				break
			}
		}
	}
	return m
}

// MinimalCover computes a minimal covering X' ⊆ X of the coverable subset
// of Y (Definition 1): first take all of X restricted to vertices with a
// neighbour in Y, then repeatedly discard any x whose removal leaves every
// y still covered. The result is minimal in the set-inclusion sense: no
// proper subset covers the same y's.
func MinimalCover(g *graph.Graph, x, y []int32) []int32 {
	inY := make([]bool, g.N())
	coverCount := make([]int32, g.N()) // chosen x adjacent to w ∈ Y
	for _, w := range y {
		inY[w] = true
	}
	var chosen []int32
	for _, v := range x {
		useful := false
		for _, w := range g.Neighbors(v) {
			if inY[w] {
				useful = true
				coverCount[w]++
			}
		}
		if useful {
			chosen = append(chosen, v)
		}
	}
	// Discard redundant members (every neighbour in Y covered twice).
	kept := chosen[:0]
	for _, v := range chosen {
		redundant := true
		for _, w := range g.Neighbors(v) {
			if inY[w] && coverCount[w] == 1 {
				redundant = false
				break
			}
		}
		if redundant {
			for _, w := range g.Neighbors(v) {
				if inY[w] {
					coverCount[w]--
				}
			}
		} else {
			kept = append(kept, v)
		}
	}
	return kept
}

// MatchingFromMinimalCover applies Proposition 2 constructively: given a
// minimal covering X' of Y, each x ∈ X' has a "private" neighbour y ∈ Y
// adjacent to no other member of X'; pairing them yields an independent
// matching of size |X'|.
func MatchingFromMinimalCover(g *graph.Graph, cover, y []int32) *Matching {
	const (
		inY   = 1 // w ∈ Y, not yet used as a private neighbour
		usedY = 2
	)
	yState := make([]uint8, g.N())
	coverDeg := make([]int32, g.N()) // cover members adjacent to w ∈ Y
	for _, w := range y {
		yState[w] = inY
	}
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if yState[w] == inY {
				coverDeg[w]++
			}
		}
	}
	m := &Matching{}
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if yState[w] == inY && coverDeg[w] == 1 {
				m.Pairs = append(m.Pairs, [2]int32{v, w})
				yState[w] = usedY
				break
			}
		}
	}
	return m
}
