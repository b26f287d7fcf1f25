package oracle

// Differential suites for the multi-message simulators built on the
// radio rule: gossip (every node starts with its own rumor, a clean
// reception merges the sender's whole rumor set) and pipeline
// (k-broadcast, one message per transmission). Each is checked against a
// naive reference written straight from the model: per-listener HasEdge
// counting and map-based knowledge sets, no bitsets, no reception kernel,
// no scratch. Both sides draw the per-node randomness stream (ascending
// vertex index over informed nodes, message choices in transmitter
// order), so results must match bit for bit.

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// naiveListen returns, for every listener of g, how many nodes of tx
// neighbour it and the last such neighbour, counted one HasEdge probe at
// a time. Transmitters report count -1: they do not listen.
func naiveListen(g *graph.Graph, tx []int32) (count []int, sender []int32) {
	inTx := make(map[int32]bool, len(tx))
	for _, v := range tx {
		inTx[v] = true
	}
	n := g.N()
	count, sender = make([]int, n), make([]int32, n)
	for w := int32(0); int(w) < n; w++ {
		if inTx[w] {
			count[w] = -1
			continue
		}
		for _, v := range tx {
			if g.HasEdge(v, w) {
				count[w]++
				sender[w] = v
			}
		}
	}
	return count, sender
}

// referenceGossip simulates gossiping naively: every node is informed at
// round 0, is asked in ascending index order each round, and merges its
// sole transmitting neighbour's rumor set on a clean reception.
func referenceGossip(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand) (gossip.Result, []trace.RoundRecord) {
	n := g.N()
	know := make([]map[int32]bool, n)
	for v := range know {
		know[v] = map[int32]bool{int32(v): true}
	}
	complete := func() int {
		c := 0
		for _, k := range know {
			if len(k) == n {
				c++
			}
		}
		return c
	}
	var records []trace.RoundRecord
	round := 0
	for round < maxRounds && complete() < n {
		round++
		var tx []int32
		for v := 0; v < n; v++ {
			if p.Transmit(int32(v), round, 0, rng) {
				tx = append(tx, int32(v))
			}
		}
		before := complete()
		count, sender := naiveListen(g, tx)
		rec := trace.RoundRecord{Round: round, Transmitters: len(tx)}
		for w, c := range count {
			switch {
			case c == 0:
				rec.Silent++
			case c == 1:
				rec.Successes++
				// Senders transmit, so no sender's set changes this round.
				for m := range know[sender[w]] {
					know[w][m] = true
				}
			case c > 1:
				rec.Collisions++
			}
		}
		rec.Informed = complete()
		rec.NewlyInformed = rec.Informed - before
		records = append(records, rec)
	}
	res := gossip.Result{Completed: complete() == n, Rounds: round, MinKnown: n}
	for _, k := range know {
		res.KnownTotal += int64(len(k))
		if len(k) < res.MinKnown {
			res.MinKnown = len(k)
		}
	}
	return res, records
}

// randomGossipProtocol draws a gossip protocol on the per-node stream:
// the stock protocols (the randomized ones wrapped so that their uniform
// rounds are not sampled) and the broadcast protocols of randomProtocol.
func randomGossipProtocol(crng *xrand.Rand, n int) (radio.Protocol, string) {
	d := 2 + crng.Float64()*10
	switch crng.Intn(4) {
	case 0:
		return &protocols.RoundRobin{N: n}, "roundrobin"
	case 1:
		return radio.ProtocolFunc((&protocols.Aloha{P: 1 / d}).Transmit), "uniform"
	case 2:
		return radio.ProtocolFunc(gossip.NewPhased(n, d).Transmit), "phased"
	default:
		p, name := randomProtocol(crng, n, true)
		return radio.ProtocolFunc(p.Transmit), name
	}
}

// TestDifferentialGossip checks gossip.RunObserved bit for bit against the
// naive reference: the Result and every per-round record.
func TestDifferentialGossip(t *testing.T) {
	base := xrand.New(diffBaseSeed + 7)
	completed := 0
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, _, seed := randomCase(crng)
		p, name := randomGossipProtocol(crng, g.N())
		const maxRounds = 200

		rec := &trace.Recorder{}
		res := gossip.RunObserved(g, p, maxRounds, xrand.New(seed), rec)
		want, wantRecs := referenceGossip(g, p, maxRounds, xrand.New(seed))
		if res != want {
			t.Fatalf("case %d (%v proto=%s seed=%#x): gossip %+v, reference %+v",
				i, g, name, seed, res, want)
		}
		if d := CompareRecords(rec.Records, wantRecs); d != "" {
			t.Fatalf("case %d (%v proto=%s seed=%#x): per-round records diverge:\n%s",
				i, g, name, seed, d)
		}
		if res.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no gossip case completed: the suite only compared stalled runs")
	}
}

// referencePipeline simulates k-broadcast naively: src knows messages
// 0..k-1, each informed node is asked in ascending index order, each
// transmitter picks its message by sel from its sorted known set, and a
// clean listener learns the message of its sole transmitting neighbour.
func referencePipeline(g *graph.Graph, src int32, k int, p radio.Protocol, sel pipeline.Selection, maxRounds int, rng *xrand.Rand) pipeline.Result {
	n := g.N()
	know := make([]map[int]bool, n)
	informedAt := make([]int32, n)
	for v := range know {
		know[v] = map[int]bool{}
		informedAt[v] = radio.NotInformed
	}
	for m := 0; m < k; m++ {
		know[src][m] = true
	}
	informedAt[src] = 0
	holders := func(m int) int {
		c := 0
		for _, kn := range know {
			if kn[m] {
				c++
			}
		}
		return c
	}
	res := pipeline.Result{FirstComplete: make([]int, k)}
	done := 0
	for m := range res.FirstComplete {
		res.FirstComplete[m] = -1
		if holders(m) == n {
			res.FirstComplete[m] = 0
			done++
		}
	}
	round := 0
	for round < maxRounds && done < k {
		round++
		var tx []int32
		for v := 0; v < n; v++ {
			if informedAt[v] != radio.NotInformed && p.Transmit(int32(v), round, informedAt[v], rng) {
				tx = append(tx, int32(v))
			}
		}
		carrying := make(map[int32]int, len(tx))
		for _, v := range tx {
			var known []int
			for m := range know[v] {
				known = append(known, m)
			}
			sort.Ints(known)
			switch sel {
			case pipeline.RandomMsg:
				carrying[v] = known[rng.Intn(len(known))]
			case pipeline.RarestFirst:
				best := known[0]
				for _, m := range known[1:] {
					if holders(m) < holders(best) {
						best = m
					}
				}
				carrying[v] = best
			default:
				carrying[v] = known[(round+int(v))%len(known)]
			}
		}
		count, sender := naiveListen(g, tx)
		var learned [][2]int
		for w, c := range count {
			if c == 1 && !know[w][carrying[sender[w]]] {
				learned = append(learned, [2]int{w, carrying[sender[w]]})
			}
		}
		for _, l := range learned {
			w, m := l[0], l[1]
			if len(know[w]) == 0 {
				informedAt[w] = int32(round)
			}
			know[w][m] = true
			res.Delivered++
			if holders(m) == n {
				res.FirstComplete[m] = round
				done++
			}
		}
	}
	res.Completed = done == k
	res.Rounds = round
	return res
}

// TestDifferentialPipeline checks pipeline.Run bit for bit against the
// naive reference under every Selection.
func TestDifferentialPipeline(t *testing.T) {
	base := xrand.New(diffBaseSeed + 8)
	sels := []pipeline.Selection{pipeline.RoundRobinMsg, pipeline.RandomMsg, pipeline.RarestFirst}
	completed := make(map[pipeline.Selection]int)
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		bp, name := randomProtocol(crng, g.N(), true)
		p := radio.ProtocolFunc(bp.Transmit) // hides RoundProb: per-node stream
		sel := sels[i%len(sels)]
		k := 1 + crng.Intn(6)
		const maxRounds = 300

		res := pipeline.Run(g, src, k, p, sel, maxRounds, xrand.New(seed))
		want := referencePipeline(g, src, k, p, sel, maxRounds, xrand.New(seed))
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("case %d (%v src=%d k=%d sel=%v proto=%s seed=%#x): pipeline %+v, reference %+v",
				i, g, src, k, sel, name, seed, res, want)
		}
		if res.Completed {
			completed[sel]++
		}
	}
	for _, sel := range sels {
		if completed[sel] == 0 {
			t.Fatalf("no %v case completed: completions by selection %v", sel, completed)
		}
	}
}
