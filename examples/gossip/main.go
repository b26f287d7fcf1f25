// Gossip: all-to-all dissemination in a radio random graph — the open
// problem the paper's conclusions gesture at, built on the same collision
// model.
//
// Every node starts with a private rumor (think: sensor readings that
// must reach every node, not just spread from one source). A transmission
// carries every rumor the sender knows, so one clean reception can merge
// thousands of rumors at once. We race the Theorem-7-style phased
// protocol against uniform 1/d sampling and collision-free round-robin,
// and watch how knowledge accumulates. The three are ordinary
// repro.Protocol values, as in broadcasting: GossipWith runs any
// Protocol, with every node informed at round 0, and samples the
// transmit sets of the phased and uniform protocols' uniform rounds.
//
// Run with:
//
//	go run ./examples/gossip
package main

import (
	"fmt"
	"log"
	"math"

	repro "repro"
	"repro/internal/gossip"
	"repro/internal/protocols"
)

func main() {
	const n = 2000
	d := 2 * math.Log(n)
	g, ok := repro.ConnectedGnpDegree(n, d, repro.NewRand(5))
	if !ok {
		log.Fatal("no connected sample")
	}
	fmt.Printf("Gossiping on %v (d = %.1f): every node starts with its own rumor.\n\n", g, d)

	budget := 100 * n
	for _, entry := range []struct {
		name string
		p    repro.Protocol
	}{
		{"phased (Thm 7 style)", gossip.NewPhased(n, d)},
		{"uniform 1/d", &protocols.Aloha{P: 1 / d}},
		{"round robin", &protocols.RoundRobin{N: n}},
	} {
		res := repro.GossipWith(g, entry.p, budget, repro.NewRand(17))
		status := fmt.Sprintf("complete in %d rounds", res.Rounds)
		if !res.Completed {
			status = fmt.Sprintf("INCOMPLETE after %d rounds (min knowledge %d/%d)",
				res.Rounds, res.MinKnown, n)
		}
		avg := float64(res.KnownTotal) / float64(n)
		fmt.Printf("%-22s %s; average rumors per node %.0f\n", entry.name, status, avg)
	}

	fmt.Printf("\nBroadcast needs Θ(ln n) ≈ %.0f rounds here; gossip multiplies that by\n", math.Log(n))
	fmt.Println("roughly another log factor for the randomized protocols, while round")
	fmt.Println("robin pays Θ(n). Experiment E13 sweeps this over n.")
}
