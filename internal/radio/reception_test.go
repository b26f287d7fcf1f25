package radio

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// naiveReception is the literal rule, one listener at a time: w receives
// from its sole transmitting neighbour, and collides with two or more.
// Clean and Collided come out in index order.
func naiveReception(g *graph.Graph, tx []int32) (clean, senders, collided []int32) {
	inTx := make(map[int32]bool, len(tx))
	for _, v := range tx {
		inTx[v] = true
	}
	for w := int32(0); w < int32(g.N()); w++ {
		if inTx[w] {
			continue
		}
		count, sender := 0, int32(-1)
		for _, v := range tx {
			if g.HasEdge(v, w) {
				count++
				sender = v
			}
		}
		switch {
		case count == 1:
			clean = append(clean, w)
			senders = append(senders, sender)
		case count >= 2:
			collided = append(collided, w)
		}
	}
	return clean, senders, collided
}

// checkReception runs the kernel on tx through r (which may carry scratch
// from earlier calls) and compares it with naiveReception, returning
// whether the round took the dense branch.
func checkReception(t *testing.T, r *Reception, g *graph.Graph, tx []int32) bool {
	t.Helper()
	wantClean, wantSenders, wantCollided := naiveReception(g, tx)
	r.ReceiveFrom(g, tx)
	type pair struct{ w, from int32 }
	got := make([]pair, len(r.Clean))
	for i, w := range r.Clean {
		got[i] = pair{w, r.Senders[i]}
	}
	slices.SortFunc(got, func(a, b pair) int { return int(a.w - b.w) })
	want := make([]pair, len(wantClean))
	for i, w := range wantClean {
		want[i] = pair{w, wantSenders[i]}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("tx %v: clean receivers/senders %v, want %v", tx, got, want)
	}
	collided := slices.Clone(r.Collided)
	slices.Sort(collided)
	if !slices.Equal(collided, wantCollided) {
		t.Fatalf("tx %v: collided %v, want %v", tx, collided, wantCollided)
	}
	// Without sender tracking the classification is the same.
	clean := slices.Clone(r.Clean)
	r.Receive(g, tx)
	if !slices.Equal(r.Clean, clean) || len(r.Collided) != len(wantCollided) {
		t.Fatalf("tx %v: Receive and ReceiveFrom disagree", tx)
	}
	// Add counts every transmitting neighbour, listener or not.
	for _, v := range tx {
		r.Add(g, v)
	}
	for w := int32(0); w < int32(g.N()); w++ {
		count := 0
		for _, v := range tx {
			if g.HasEdge(v, w) {
				count++
			}
		}
		if r.Hits(w) != min(count, 2) {
			t.Fatalf("tx %v: Hits(%d) = %d, want min(%d, 2)", tx, w, r.Hits(w), count)
		}
	}
	r.Clear()
	visits := 0
	for _, v := range tx {
		visits += g.Degree(v)
	}
	return 2*visits >= g.N()
}

// FuzzReception compares the reception kernel with the per-listener
// HasEdge count on a random small graph and two random transmit sets, the
// second on a graph of another size through the same scratch.
func FuzzReception(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(40), uint8(1))  // sparse
	f.Add(uint64(2), uint8(30), uint8(120), uint8(9)) // dense
	f.Add(uint64(5), uint8(39), uint8(26), uint8(20)) // dense, few collisions
	f.Add(uint64(6), uint8(63), uint8(20), uint8(6))  // sparse, larger
	f.Add(uint64(7), uint8(63), uint8(51), uint8(2))  // sparse with collisions
	f.Add(uint64(3), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(50), uint8(255), uint8(50))
	f.Fuzz(func(t *testing.T, seed uint64, n, p, k uint8) {
		rng := xrand.New(seed)
		var r Reception
		for _, size := range []int{int(n)%64 + 1, int(n)%17 + 1} {
			g := gen.Gnp(size, float64(p)/255, rng)
			tx := rng.Sample(size, int(k)%(size+1))
			checkReception(t, &r, g, tx)
		}
	})
}

// TestReceptionBranches pins that both classification strategies are
// refereed, and that one Reception stays clean across them.
func TestReceptionBranches(t *testing.T) {
	rng := xrand.New(7)
	g := gen.Gnp(200, 0.05, rng)
	var r Reception
	seen := map[bool]int{}
	for k := 0; k <= 200; k += 5 {
		seen[checkReception(t, &r, g, rng.Sample(200, k))]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("branches reached: %v, want both dense and sparse", seen)
	}
}

// BenchmarkReception is one dense round of BenchmarkRound's workload
// through the kernel alone, without and with sender tracking.
func BenchmarkReception(b *testing.B) {
	rng := xrand.New(1)
	const n = 50000
	g := gen.Gnp(n, gen.PForDegree(n, 20), rng)
	tx := rng.Sample(n, n/20)
	var r Reception
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Receive(g, tx)
		}
	})
	b.Run("senders", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.ReceiveFrom(g, tx)
		}
	})
}
