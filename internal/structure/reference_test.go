package structure

// The map-based constructions that the dense-scratch kernels replaced,
// kept (renamed, comments trimmed) as test oracles: the differential
// tests and FuzzGreedyIndependentCover require the production code to
// reproduce them exactly, including output order and nil-ness.

import "repro/internal/graph"

func refEvaluateCover(g *graph.Graph, s, y []int32) *Cover {
	inS := make(map[int32]bool, len(s))
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

func refGreedyIndependentCover(g *graph.Graph, x, y []int32) *Cover {
	inY := make(map[int32]int, len(y)) // y vertex -> #neighbours among accepted transmitters
	for _, w := range y {
		inY[w] = 0
	}
	accepted := make([]int32, 0, len(y))
	acceptedSet := make(map[int32]bool)
	// Repeatedly pick the candidate covering the most currently-uncovered
	// y-nodes without touching any covered y-node. A simple quadratic
	// greedy is fine: the tail sets are small.
	remaining := make(map[int32]bool, len(y))
	for _, w := range y {
		remaining[w] = true
	}
	for len(remaining) > 0 {
		var best int32 = -1
		bestGain := 0
		for _, cand := range x {
			if acceptedSet[cand] {
				continue
			}
			gain := 0
			ok := true
			for _, w := range g.Neighbors(cand) {
				cnt, isY := inY[w]
				if !isY {
					continue
				}
				if cnt >= 1 {
					// cand would give an already-covered y a second
					// neighbour -> collision; reject.
					ok = false
					break
				}
				if remaining[w] {
					gain++
				}
			}
			if ok && gain > bestGain {
				best, bestGain = cand, gain
			}
		}
		if best < 0 {
			break // no candidate can extend the cover independently
		}
		accepted = append(accepted, best)
		acceptedSet[best] = true
		for _, w := range g.Neighbors(best) {
			if _, isY := inY[w]; isY {
				inY[w]++
				delete(remaining, w)
			}
		}
	}
	return refEvaluateCover(g, accepted, y)
}

func refGreedyIndependentMatching(g *graph.Graph, x, y []int32) *Matching {
	inX := make(map[int32]bool, len(x))
	for _, v := range x {
		inX[v] = true
	}
	inY := make(map[int32]bool, len(y))
	for _, v := range y {
		inY[v] = true
	}
	matchedX := make(map[int32]bool)
	matchedY := make(map[int32]bool)
	m := &Matching{}
	for _, w := range y {
		// Independence requires: for the new pair (x, w), x has no edge to
		// previously matched y's, and w has no edge to previously matched
		// x's. Future pairs check against (x, w) symmetrically.
		if matchedY[w] {
			continue
		}
		wOK := true
		for _, nb := range g.Neighbors(w) {
			if matchedX[nb] {
				wOK = false
				break
			}
		}
		if !wOK {
			continue
		}
		for _, cand := range g.Neighbors(w) {
			if !inX[cand] || matchedX[cand] {
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
				matchedX[cand] = true
				matchedY[w] = true
				m.Pairs = append(m.Pairs, [2]int32{cand, w})
				break
			}
		}
	}
	return m
}

func refMinimalCover(g *graph.Graph, x, y []int32) []int32 {
	inY := make(map[int32]bool, len(y))
	for _, w := range y {
		inY[w] = true
	}
	// coverCount[w] = number of chosen x adjacent to w.
	coverCount := make(map[int32]int, len(y))
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

func refMatchingFromMinimalCover(g *graph.Graph, cover, y []int32) *Matching {
	inCover := make(map[int32]bool, len(cover))
	for _, v := range cover {
		inCover[v] = true
	}
	inY := make(map[int32]bool, len(y))
	for _, w := range y {
		inY[w] = true
	}
	// coverDeg[w] = number of cover members adjacent to w ∈ Y.
	coverDeg := make(map[int32]int, len(y))
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if inY[w] {
				coverDeg[w]++
			}
		}
	}
	m := &Matching{}
	usedY := make(map[int32]bool)
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if inY[w] && coverDeg[w] == 1 && !usedY[w] {
				m.Pairs = append(m.Pairs, [2]int32{v, w})
				usedY[w] = true
				break
			}
		}
	}
	return m
}
