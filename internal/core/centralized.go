package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/structure"
	"repro/internal/xrand"
)

// CentralizedConfig tunes the Theorem 5 schedule builder. The zero value is
// not valid; use DefaultCentralizedConfig.
type CentralizedConfig struct {
	// SelectiveC is the constant c in the c·ln d budget of 1/d-selective
	// rounds (phase 3). The builder is adaptive and may stop the phase
	// early once the uninformed set is small, but never exceeds this
	// budget before switching to explicit covers.
	SelectiveC float64
	// DisjointSelectiveSets enforces the proof's requirement that the
	// random transmit sets of the selective phase be pairwise disjoint.
	// Disabling it is ablation A1 of experiment E12.
	DisjointSelectiveSets bool
	// CoverFinish enables the independent-cover finishing phases (4 and
	// 5). Disabling it (ablation A2) continues random selective rounds
	// instead and typically wastes Θ(ln n) extra rounds on the tail.
	CoverFinish bool
	// Selectivity is the per-round sampling fraction of the selective
	// phase; the paper uses 1/d (set <= 0 for that default). Ablation A3
	// tries 1/√d and 1/d².
	Selectivity float64
	// MaxRounds aborts the builder if the schedule exceeds this many
	// rounds (a safety net against mis-configuration; the builder fails
	// rather than loop forever). Zero means an automatic generous budget.
	MaxRounds int
	// Seed drives the randomized choices (kick-off sample, selective
	// sets).
	Seed uint64
}

// DefaultCentralizedConfig returns the faithful configuration of the
// paper's algorithm.
func DefaultCentralizedConfig(seed uint64) CentralizedConfig {
	return CentralizedConfig{
		SelectiveC:            3,
		DisjointSelectiveSets: true,
		CoverFinish:           true,
		Selectivity:           0, // 1/d
		Seed:                  seed,
	}
}

// CentralizedTrace reports how many rounds each phase of the schedule
// used; the sum equals the schedule length.
type CentralizedTrace struct {
	TreeRounds      int // phase 1: parity ping-pong over small layers
	KickoffRounds   int // phase 2: Θ(n/d) sample from layer D*
	SelectiveRounds int // phase 3: random 1/d-fractions
	CoverRounds     int // phase 4: independent covers on the giant layers
	BackwardRounds  int // phase 5: descending sweep over small layers
	DStar           int // boundary layer index
	Layers          int // eccentricity of the source + 1
}

// Total returns the schedule length implied by the trace.
func (t CentralizedTrace) Total() int {
	return t.TreeRounds + t.KickoffRounds + t.SelectiveRounds + t.CoverRounds + t.BackwardRounds
}

// String renders a compact per-phase summary.
func (t CentralizedTrace) String() string {
	return fmt.Sprintf("tree=%d kick=%d selective=%d cover=%d backward=%d (D*=%d, layers=%d, total=%d)",
		t.TreeRounds, t.KickoffRounds, t.SelectiveRounds, t.CoverRounds, t.BackwardRounds,
		t.DStar, t.Layers, t.Total())
}

// BuildCentralizedSchedule constructs the Theorem 5 broadcast schedule for
// source src on the connected graph g with expected average degree d (the
// caller passes d = pn; it is used only for phase sizing, so a degree
// estimate from the graph itself also works). The returned schedule, when
// executed under radio.StrictInformed, informs every vertex reachable from
// src.
//
// The builder is adaptive: it simulates the radio model while emitting
// rounds, so the schedule is valid by construction. It returns an error if
// the graph is disconnected from src or the round budget is exhausted.
func BuildCentralizedSchedule(g *graph.Graph, src int32, d float64, cfg CentralizedConfig) (*radio.Schedule, CentralizedTrace, error) {
	n := g.N()
	var trace CentralizedTrace
	if n == 0 {
		return &radio.Schedule{}, trace, fmt.Errorf("core: %w: empty graph", radio.ErrScheduleMismatch)
	}
	if d < 2 {
		d = 2
	}
	if cfg.Selectivity <= 0 {
		cfg.Selectivity = 1 / d
	}
	if cfg.SelectiveC <= 0 {
		cfg.SelectiveC = 3
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		// Generous: the result should be Θ(ln n/ln d + ln d); allow a large
		// multiple plus slack for tiny graphs.
		maxRounds = 64*int(math.Ceil(CentralizedBound(n, d))) + 256
	}
	rng := xrand.New(cfg.Seed)

	// One BFS: the layers are bucketed from dist, not recomputed.
	dist := graph.Distances(g, src)
	for v, dv := range dist {
		if dv == graph.Unreachable {
			return nil, trace, fmt.Errorf("core: %w: vertex %d unreachable from source %d", radio.ErrScheduleMismatch, v, src)
		}
	}
	layers := graph.LayersOf(dist)
	trace.Layers = len(layers)

	// D*: the first layer of size >= n/d (the paper's first layer with
	// Ω(n/d) nodes); if none, the graph is shallow/sparse and the tree
	// phase alone spans all layers.
	dStar := len(layers) - 1
	for i, layer := range layers {
		if float64(len(layer)) >= float64(n)/d {
			dStar = i
			break
		}
	}
	trace.DStar = dStar

	e := radio.NewEngine(g, src, radio.StrictInformed)
	sched := &radio.Schedule{}
	// Builder-owned scratch, allocated O(n) once and reused by every cover
	// round: mark is epoch-stamped (mark[v] == epoch means "v is in the
	// current candidate set"), so clearing it between rounds is a counter
	// increment instead of a map allocation.
	sc := &coverScratch{mark: make([]int32, n), cover: structure.NewScratch(n)}
	emit := func(set []int32, phase *int) error {
		owned := make([]int32, len(set))
		copy(owned, set)
		sched.Sets = append(sched.Sets, owned)
		if _, err := e.Round(owned); err != nil {
			return err
		}
		*phase++
		if e.RoundCount() > maxRounds {
			return fmt.Errorf("core: %w: schedule exceeded %d rounds (%s)", radio.ErrScheduleMismatch, maxRounds, trace)
		}
		return nil
	}

	// --- Phase 1: parity ping-pong over the small layers -----------------
	// Round i transmits the informed nodes at distances j < dStar with
	// j ≡ i-1 (mod 2): round 1 transmits the source (j = 0), round 2 the
	// odd layers, and so on. We run until layer dStar's informed count
	// stops growing and at least dStar rounds have passed.
	var buf []int32
	for i := 1; i <= dStar || (dStar == 0 && i == 1); i++ {
		par := int32((i - 1) % 2)
		buf = buf[:0]
		for v := 0; v < n; v++ {
			if dist[v] < int32(dStar) && dist[v]%2 == par && e.Informed(int32(v)) {
				buf = append(buf, int32(v))
			}
		}
		if len(buf) == 0 && dStar > 0 {
			continue
		}
		if err := emit(buf, &trace.TreeRounds); err != nil {
			return nil, trace, err
		}
		if e.Done() {
			return sched, trace, nil
		}
	}
	// Special case: dStar == 0 means even layer 0 … impossible except for
	// n/d <= 1; the single emitted round (source) already handled it.

	// --- Phase 2: kick-off round from layer D* ---------------------------
	// Θ(n/d) informed vertices of T_{D*} transmit.
	if dStar > 0 && !e.Done() {
		informedDStar := buf[:0]
		for _, v := range layers[dStar] {
			if e.Informed(v) {
				informedDStar = append(informedDStar, v)
			}
		}
		if len(informedDStar) == 0 {
			// The parity phase never reached T_{D*} (possible on extreme
			// inputs). Fall back to transmitting the deepest informed
			// frontier until T_{D*} is seeded.
			for !e.Done() {
				sc.frontier = deepestInformedFrontier(e, dist, sc.frontier[:0])
				frontier := sc.frontier
				if len(frontier) == 0 {
					return nil, trace, fmt.Errorf("core: %w: stalled before kick-off (%s)", radio.ErrScheduleMismatch, trace)
				}
				if err := emit(frontier, &trace.TreeRounds); err != nil {
					return nil, trace, err
				}
				informedDStar = informedDStar[:0]
				for _, v := range layers[dStar] {
					if e.Informed(v) {
						informedDStar = append(informedDStar, v)
					}
				}
				if len(informedDStar) > 0 {
					break
				}
			}
		}
		if !e.Done() && len(informedDStar) > 0 {
			want := int(math.Ceil(float64(n) / d))
			set := informedDStar
			if len(set) > want {
				idx := rng.Sample(len(set), want)
				sample := make([]int32, want)
				for i, j := range idx {
					sample[i] = set[j]
				}
				set = sample
			}
			if err := emit(set, &trace.KickoffRounds); err != nil {
				return nil, trace, err
			}
		}
	}

	// --- Phase 3: 1/d-selective random rounds ----------------------------
	budget := int(math.Ceil(cfg.SelectiveC * math.Log(d)))
	used := make([]bool, n) // members of earlier selective sets
	tailThreshold := int(math.Ceil(float64(n) / (d * d)))
	if tailThreshold < 8 {
		tailThreshold = 8
	}
	pool := make([]int32, 0, n)
	for r := 0; r < budget && !e.Done(); r++ {
		uninformed := n - e.InformedCount()
		if cfg.CoverFinish && uninformed <= tailThreshold {
			break // the cover finish handles the tail more cheaply
		}
		pool = pool[:0]
		for v := 0; v < n; v++ {
			if e.Informed(int32(v)) && !(cfg.DisjointSelectiveSets && used[v]) {
				pool = append(pool, int32(v))
			}
		}
		set := rng.SubsetEach(sc.set[:0], pool, cfg.Selectivity)
		if len(set) == 0 && len(pool) > 0 {
			set = append(set, pool[rng.Intn(len(pool))])
		}
		sc.set = set
		for _, v := range set {
			used[v] = true
		}
		if err := emit(set, &trace.SelectiveRounds); err != nil {
			return nil, trace, err
		}
	}

	// --- Phases 4+5: independent-cover finish ----------------------------
	if cfg.CoverFinish {
		// Phase 4: uninformed nodes in the giant region (distance >= dStar).
		if err := coverUntilInformed(e, emit, &trace.CoverRounds,
			func(v int32) bool { return dist[v] >= int32(dStar) }, rng, sc); err != nil {
			return nil, trace, err
		}
		// Phase 5: backward sweep over the small layers, descending.
		for i := dStar - 1; i >= 1 && !e.Done(); i-- {
			di := int32(i)
			if err := coverUntilInformed(e, emit, &trace.BackwardRounds,
				func(v int32) bool { return dist[v] == di }, rng, sc); err != nil {
				return nil, trace, err
			}
		}
		// Safety: anything still uninformed (shouldn't happen).
		if err := coverUntilInformed(e, emit, &trace.BackwardRounds,
			func(v int32) bool { return true }, rng, sc); err != nil {
			return nil, trace, err
		}
	} else {
		// Ablation A2: keep doing selective rounds until done.
		for !e.Done() {
			pool = pool[:0]
			for v := 0; v < n; v++ {
				if e.Informed(int32(v)) {
					pool = append(pool, int32(v))
				}
			}
			set := rng.SubsetEach(sc.set[:0], pool, cfg.Selectivity)
			if len(set) == 0 {
				set = append(set, pool[rng.Intn(len(pool))])
			}
			sc.set = set
			if err := emit(set, &trace.SelectiveRounds); err != nil {
				return nil, trace, err
			}
		}
	}

	if !e.Done() {
		return nil, trace, fmt.Errorf("core: %w: schedule incomplete: %d/%d informed (%s)",
			radio.ErrScheduleMismatch, e.InformedCount(), n, trace)
	}
	return sched, trace, nil
}

// coverScratch is the schedule builder's reusable working memory: one O(n)
// allocation up front instead of per-round maps and slices. mark doubles as
// the candidate-membership set — mark[v] == epoch means v is a candidate of
// the current cover round — so "clearing" it is epoch++ (O(1)), and
// coverSampleRate can test membership without building its own set. cover
// is the greedy independent cover kernel's own scratch.
type coverScratch struct {
	mark     []int32
	epoch    int32
	cover    *structure.Scratch
	targets  []int32
	cands    []int32
	set      []int32
	frontier []int32
}

// deepestInformedFrontier returns the informed vertices at the maximum
// distance among informed vertices, appended to buf (single O(n) pass, no
// allocation once buf has capacity).
func deepestInformedFrontier(e *radio.Engine, dist []int32, buf []int32) []int32 {
	maxD := int32(-1)
	out := buf
	for v := range dist {
		if !e.Informed(int32(v)) {
			continue
		}
		if dist[v] > maxD {
			maxD = dist[v]
			out = out[:0]
		}
		if dist[v] == maxD {
			out = append(out, int32(v))
		}
	}
	return out
}

// coverUntilInformed emits independent-cover rounds until every vertex
// selected by want is informed. Each round's transmitter set is a greedy
// independent cover of the remaining targets built from their informed
// neighbours, so every target with at least one informed neighbour is
// guaranteed progress; targets with no informed neighbour yet are retried
// after the rest of the graph advances. All working memory lives in sc;
// steady-state rounds allocate nothing. The candidate list is built in
// target order, first-seen order preserved, so the rng draws (and hence the
// schedule) are identical to the earlier map-based implementation.
func coverUntilInformed(e *radio.Engine, emit func([]int32, *int) error, counter *int,
	want func(int32) bool, rng *xrand.Rand, sc *coverScratch) error {
	g := e.Graph()
	n := g.N()
	for {
		targets := sc.targets[:0]
		for v := 0; v < n; v++ {
			if !e.Informed(int32(v)) && want(int32(v)) {
				targets = append(targets, int32(v))
			}
		}
		sc.targets = targets
		if len(targets) == 0 {
			return nil
		}
		// Candidate transmitters: informed neighbours of the targets.
		sc.epoch++
		cands := sc.cands[:0]
		reachable := false
		for _, y := range targets {
			for _, x := range g.Neighbors(y) {
				if e.Informed(x) {
					reachable = true
					if sc.mark[x] != sc.epoch {
						sc.mark[x] = sc.epoch
						cands = append(cands, x)
					}
				}
			}
		}
		sc.cands = cands
		if !reachable {
			// No informed neighbour anywhere: the caller's phase ordering
			// guarantees this cannot persist; make progress elsewhere by
			// letting a random informed vertex transmit. If that is
			// impossible the graph is disconnected (checked earlier).
			return fmt.Errorf("core: %w: cover targets unreachable from informed set", radio.ErrScheduleMismatch)
		}
		// For large target sets a randomized 1/deg cover is cheaper and
		// still informs a constant fraction; the greedy exact cover is
		// reserved for small tails.
		var set []int32
		if len(targets) > 64 {
			q := coverSampleRate(g, targets, sc)
			set = rng.SubsetEach(sc.set[:0], cands, q)
		} else {
			set = sc.cover.GreedyIndependentCover(g, cands, targets, sc.set[:0])
		}
		if len(set) == 0 {
			// An empty sample, or a greedy that could not make an
			// independent choice (rare, adversarial overlaps): transmit a
			// single candidate; it informs all its exclusive targets.
			set = append(set, cands[rng.Intn(len(cands))])
		}
		sc.set = set
		if err := emit(set, counter); err != nil {
			return err
		}
	}
}

// coverSampleRate estimates a good Bernoulli rate for a randomized cover:
// 1 over the mean number of candidate-neighbours per target, clamped to
// (0, 1]. Candidate membership is read from sc.mark (stamped by the
// caller's candidate pass), so no set is built here.
func coverSampleRate(g *graph.Graph, targets []int32, sc *coverScratch) float64 {
	totalDeg := 0
	for _, y := range targets {
		for _, x := range g.Neighbors(y) {
			if sc.mark[x] == sc.epoch {
				totalDeg++
			}
		}
	}
	if totalDeg == 0 {
		return 1
	}
	mean := float64(totalDeg) / float64(len(targets))
	q := 1 / mean
	if q > 1 {
		q = 1
	}
	return q
}

// RoundRobinSchedule returns the trivial baseline schedule in which the
// informed frontier transmits one node per round in BFS order — correct on
// any graph but Θ(n) rounds long. Used as the naive centralized comparison
// in E3/E5.
func RoundRobinSchedule(g *graph.Graph, src int32) *radio.Schedule {
	layers := graph.Layers(g, src)
	s := &radio.Schedule{}
	for _, layer := range layers {
		for _, v := range layer {
			s.Sets = append(s.Sets, []int32{v})
		}
	}
	return s
}
