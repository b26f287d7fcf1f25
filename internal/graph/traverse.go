package graph

// This file contains traversal primitives: breadth-first search, BFS layer
// decomposition (the sets T_i(u) of the paper), connectivity tests and
// eccentricity/diameter estimation.

// Unreachable is the distance value assigned by BFS to vertices not
// reachable from the source.
const Unreachable int32 = -1

// BFS runs a breadth-first search from src and returns the distance of each
// vertex (Unreachable for vertices in other components) and the BFS parent
// of each vertex (-1 for src and unreachable vertices).
func BFS(g *Graph, src int32) (dist, parent []int32) {
	n := g.N()
	dist = make([]int32, n)
	parent = make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = -1
	}
	queue := make([]int32, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return dist, parent
}

// Distances returns only the BFS distance array from src.
func Distances(g *Graph, src int32) []int32 {
	d, _ := BFS(g, src)
	return d
}

// Layers returns the BFS layers T_0(u) = {u}, T_1(u), ..., where T_i(u) is
// the set of vertices at distance exactly i from u, as in Lemma 3 of the
// paper. Unreachable vertices appear in no layer. Each layer slice is
// sorted by vertex id.
func Layers(g *Graph, src int32) [][]int32 {
	return LayersOf(Distances(g, src))
}

// LayersOf buckets a distance vector (as returned by Distances) into the
// layers Layers returns, so a caller that already holds dist needs no
// second BFS. Unreachable vertices appear in no layer; each layer slice is
// sorted by vertex id.
func LayersOf(dist []int32) [][]int32 {
	maxD := int32(0)
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]int32, maxD+1)
	counts := make([]int, maxD+1)
	for _, d := range dist {
		if d >= 0 {
			counts[d]++
		}
	}
	for i := range layers {
		layers[i] = make([]int32, 0, counts[i])
	}
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], int32(v))
		}
	}
	return layers
}

// IsConnected reports whether g is connected. The empty graph is considered
// connected; a one-vertex graph is connected.
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	dist := Distances(g, 0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components of g, each sorted by vertex
// id, ordered by their smallest vertex.
func Components(g *Graph) [][]int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	queue := make([]int32, 0, n)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		members := []int32{s}
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					members = append(members, w)
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// LargestComponent returns the vertex set of the largest connected
// component (ties broken by smallest vertex id).
func LargestComponent(g *Graph) []int32 {
	var best []int32
	for _, c := range Components(g) {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// Eccentricity returns the maximum BFS distance from src to any reachable
// vertex. Lower-bounds the broadcast time from src in any radio model.
func Eccentricity(g *Graph, src int32) int {
	dist := Distances(g, src)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter returns the exact diameter of a connected graph by running a BFS
// from every vertex — O(n·m); use DiameterLower for large graphs. It
// returns -1 if the graph is disconnected or empty.
func Diameter(g *Graph) int {
	if g.N() == 0 || !IsConnected(g) {
		return -1
	}
	diam := 0
	for v := int32(0); int(v) < g.N(); v++ {
		if e := Eccentricity(g, v); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterLower returns a lower bound on the diameter using the standard
// double-sweep heuristic (BFS from src, then BFS from the farthest vertex
// found). On random graphs the bound is almost always tight.
func DiameterLower(g *Graph, src int32) int {
	if g.N() == 0 {
		return -1
	}
	dist := Distances(g, src)
	far, fd := src, int32(0)
	for v, d := range dist {
		if d > fd {
			fd = d
			far = int32(v)
		}
	}
	return Eccentricity(g, far)
}

// JointNeighborCounts returns, for each vertex in set, the number of other
// vertices of set with which it shares at least one common neighbour, and
// the number with which it shares at least two. This measures the "almost
// tree" property of Lemma 3: within a BFS layer, very few pairs should
// share a common neighbour in the next layer.
//
// restrict, if non-nil, limits the common neighbours considered to vertices
// for which restrict(w) is true (e.g. only the next BFS layer).
func JointNeighborCounts(g *Graph, set []int32, restrict func(int32) bool) (shareOne, shareTwo []int) {
	inSet := make(map[int32]int32, len(set))
	for i, v := range set {
		inSet[v] = int32(i)
	}
	// For each vertex of set, count common-neighbour multiplicity against
	// every other member by scanning two-hop paths through allowed middles.
	pairCount := make(map[[2]int32]int32)
	for i, v := range set {
		for _, w := range g.Neighbors(v) {
			if restrict != nil && !restrict(w) {
				continue
			}
			for _, x := range g.Neighbors(w) {
				j, ok := inSet[x]
				if !ok || j <= int32(i) {
					continue
				}
				pairCount[[2]int32{int32(i), j}]++
			}
		}
	}
	shareOne = make([]int, len(set))
	shareTwo = make([]int, len(set))
	for pair, c := range pairCount {
		shareOne[pair[0]]++
		shareOne[pair[1]]++
		if c >= 2 {
			shareTwo[pair[0]]++
			shareTwo[pair[1]]++
		}
	}
	return shareOne, shareTwo
}

// CountEdgesWithin returns the number of edges of g with both endpoints in
// set.
func CountEdgesWithin(g *Graph, set []int32) int {
	in := make(map[int32]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	count := 0
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if w > v && in[w] {
				count++
			}
		}
	}
	return count
}

// CountEdgesBetween returns the number of edges with one endpoint in a and
// the other in b. The sets are assumed disjoint.
func CountEdgesBetween(g *Graph, a, b []int32) int {
	inB := make(map[int32]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	count := 0
	for _, v := range a {
		for _, w := range g.Neighbors(v) {
			if inB[w] {
				count++
			}
		}
	}
	return count
}
