package radio

// The reception kernel: the radio rule of §1.1, coded once. The engine's
// Round and its collision-detection round, gossip, pipeline, the schedule
// compressor and the greedy adversary all classify listeners through it.

import "repro/internal/graph"

// Reception applies the radio rule to one round on reusable dense
// scratch: a listener receives iff exactly one of its neighbours
// transmits, two or more transmitting neighbours collide, and a
// transmitter does not listen. The zero value is ready to use; the
// scratch grows to the largest graph seen and is clean between calls. A
// Reception is not safe for concurrent use.
type Reception struct {
	// Clean lists the listeners with exactly one transmitting neighbour
	// and Collided those with two or more: in index order after a dense
	// round, in first-visit order after a sparse one.
	Clean, Collided []int32
	// Senders[i] is the sole transmitting neighbour of Clean[i]; only
	// ReceiveFrom fills it.
	Senders []int32

	// hits counts transmitting neighbours, saturating at 2: the rule only
	// distinguishes 0 / exactly 1 / >= 2, and a byte array keeps the
	// randomly accessed working set 4x smaller than int32 counters (a
	// round is memory-bound on it).
	hits    []uint8
	touched []int32 // nodes with nonzero hits in sparse rounds and after Add
	from    []int32 // last transmitting neighbour per node (ReceiveFrom)
}

// Receive classifies every listener of g for the transmit set tx, which
// must not contain duplicates. The outputs are valid until the next call.
func (r *Reception) Receive(g *graph.Graph, tx []int32) { r.receive(g, tx, nil) }

// ReceiveFrom is Receive that also fills Senders. Tracking senders costs
// one write per neighbour visit, so only callers that forward the
// sender's state (gossip, pipeline) use it.
func (r *Reception) ReceiveFrom(g *graph.Graph, tx []int32) {
	if len(r.from) < g.N() {
		r.from = make([]int32, g.N())
	}
	r.receive(g, tx, r.from)
	r.Senders = r.Senders[:0]
	for _, w := range r.Clean {
		r.Senders = append(r.Senders, r.from[w])
	}
}

// receive counts each listener's transmitting neighbours, then classifies
// the counted nodes. Both steps run without data-dependent branches: a
// count in {0, 1, 2} steps by 1 - h>>1, and every candidate is written to
// both output lists while h&1 and h>>1 decide whether each list keeps it.
// The exact neighbour-visit count picks the candidates: dense rounds
// (2·visits >= n) skip the touched list and scan all nodes; sparse rounds
// keep the O(visits) touched list so tiny rounds never pay an O(n) pass.
// Both yield the same sets.
func (r *Reception) receive(g *graph.Graph, tx []int32, from []int32) {
	n := g.N()
	r.Clear()
	if len(r.hits) < n {
		r.hits = make([]uint8, n)
	}
	if cap(r.Clean) < n {
		r.Clean, r.Collided = make([]int32, n), make([]int32, n)
	}
	hits := r.hits[:n]
	visits := 0
	for _, v := range tx {
		visits += g.Degree(v)
	}
	dense := 2*visits >= n
	for _, v := range tx {
		if !dense {
			r.add(g, v, from)
			continue
		}
		for _, w := range g.Neighbors(v) {
			h := hits[w]
			hits[w] = h + 1 - h>>1
			if from != nil {
				from[w] = v
			}
		}
	}
	// Transmitters do not listen: zeroing their counts drops them from
	// the classification without a transmitting mark.
	for _, v := range tx {
		hits[v] = 0
	}
	clean, collided := r.Clean[:n], r.Collided[:n]
	c, k := 0, 0
	if dense {
		for w, h := range hits {
			clean[c], collided[k] = int32(w), int32(w)
			c += int(h & 1)
			k += int(h >> 1)
		}
		clear(hits)
	} else {
		for _, w := range r.touched {
			h := hits[w]
			hits[w] = 0
			clean[c], collided[k] = w, w
			c += int(h & 1)
			k += int(h >> 1)
		}
		r.touched = r.touched[:0]
	}
	r.Clean, r.Collided = clean[:c], collided[:k]
}

// Add scatters one more transmitter into the hit counts without
// classifying, for callers that grow a transmit set one node at a time
// and read Hits between additions (the greedy adversary). Clear, or the
// next Receive, empties the counts.
func (r *Reception) Add(g *graph.Graph, v int32) {
	if len(r.hits) < g.N() {
		r.hits = make([]uint8, g.N())
	}
	r.add(g, v, nil)
}

// Hits returns how many Add-ed transmitters neighbour w, saturating at 2.
func (r *Reception) Hits(w int32) int {
	if int(w) >= len(r.hits) {
		return 0 // nothing added yet
	}
	return int(r.hits[w])
}

// Clear empties the hit counts left by Add.
func (r *Reception) Clear() {
	for _, w := range r.touched {
		r.hits[w] = 0
	}
	r.touched = r.touched[:0]
}

func (r *Reception) add(g *graph.Graph, v int32, from []int32) {
	for _, w := range g.Neighbors(v) {
		h := r.hits[w]
		if h == 0 {
			r.touched = append(r.touched, w)
		}
		r.hits[w] = h + 1 - h>>1
		if from != nil {
			from[w] = v
		}
	}
}
