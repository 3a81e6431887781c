package wl

// Tracker maintains the per-round WL labels of a single mutating graph and
// re-refines them incrementally after an edge insertion or deletion. The
// locality of WL refinement makes this cheap: after mutating edge {u, v},
// the round-r label of a vertex can only change if it lies within r−1 hops
// of {u, v}, so each update touches a ball around the endpoints instead of
// the whole graph. The resulting delta — how many final-round labels
// changed — is the structural-change estimate package dynamic uses to
// choose between splicing a path repair and rebuilding from scratch.
//
// Labels stay interned by one shared Refiner across the tracker's lifetime,
// so label IDs are comparable across updates (at the cost of an intern
// table that grows with the number of distinct signatures ever seen).
type Tracker struct {
	r      *Refiner
	rounds int
	// labels[k] is the labelling after k rounds; len(labels) == rounds+1.
	labels []Labeling
	// Scratch kept across updates: dist is all −1 between calls (an update
	// resets only the ball it touched), so an update costs its ball and
	// not a pass over every vertex.
	dist    []int32
	ball    []int32
	scratch refineScratch
}

// NewTracker refines g for the given number of rounds from the initial
// per-vertex labels (nil = uniform) and starts tracking it.
func NewTracker(g Adjacency, initial []int32, rounds int) *Tracker {
	if rounds < 0 {
		rounds = 0
	}
	t := &Tracker{r: NewRefiner(), rounds: rounds, dist: make([]int32, g.NumNodes())}
	for i := range t.dist {
		t.dist[i] = -1
	}
	cur := t.r.InitialLabels(g.NumNodes(), initial)
	t.labels = append(t.labels, cur)
	for k := 0; k < rounds; k++ {
		cur = t.r.Refine(g, cur)
		t.labels = append(t.labels, cur)
	}
	return t
}

// Rounds returns the refinement depth h.
func (t *Tracker) Rounds() int { return t.rounds }

// Labels returns the current final-round labelling (live; do not modify).
func (t *Tracker) Labels() Labeling { return t.labels[t.rounds] }

// Update re-refines the tracked labels after the mutation of edge {u, v}
// and returns how many final-round labels changed. g must be the
// post-mutation graph. The affected region is found by multi-source BFS
// from {u, v}; because any path into the set {u, v} reaches an endpoint
// before it could use the mutated edge, the same ball covers both the
// pre- and post-mutation graph, so one BFS on g suffices for insertions
// and deletions alike.
func (t *Tracker) Update(g Adjacency, u, v int32) int {
	return t.UpdateBatch(g, []int32{u, v})
}

// UpdateBatch is Update for a whole batch of mutations applied at once:
// endpoints lists every vertex incident to a mutated (inserted or deleted)
// edge, and g is the post-batch graph. The single-edge ball argument
// composes — a pre-batch path from any vertex into the mutated region
// reaches some endpoint through unmutated edges before it can use a
// mutated one, so one multi-source BFS from all endpoints on g covers the
// pre- and post-batch balls of every mutation in the batch.
func (t *Tracker) UpdateBatch(g Adjacency, endpoints []int32) int {
	if t.rounds == 0 || len(endpoints) == 0 {
		return 0
	}
	// Multi-source BFS to depth rounds−1: dist[x] = hops to nearest
	// endpoint, −1 = beyond the horizon. ball holds visited vertices in
	// ascending distance order; ballEnd[d] is the count with dist ≤ d.
	dist, ball := t.dist, t.ball[:0]
	push := func(x int32, d int32) {
		if x < 0 || int(x) >= len(dist) || dist[x] >= 0 {
			return
		}
		dist[x] = d
		ball = append(ball, x)
	}
	for _, e := range endpoints {
		push(e, 0)
	}
	ballEnd := make([]int, t.rounds)
	head := 0
	for d := int32(0); d < int32(t.rounds)-1; d++ {
		tail := len(ball)
		for ; head < tail; head++ {
			for _, w := range g.Neighbors(ball[head]) {
				push(w, d+1)
			}
		}
		ballEnd[d] = tail
	}
	ballEnd[t.rounds-1] = len(ball)

	// Re-refine round by round: the round-k label of a vertex at distance
	// d changes only if d ≤ k−1, so round k touches ball[:ballEnd[k-1]].
	// Earlier-round labels are updated in place before later rounds read
	// them, which keeps every signature consistent.
	changed := 0
	for k := 1; k <= t.rounds; k++ {
		prev, cur := t.labels[k-1], t.labels[k]
		final := k == t.rounds
		for _, x := range ball[:ballEnd[k-1]] {
			l := t.r.refineVertex(g, prev, int(x), &t.scratch)
			if l != cur[x] {
				cur[x] = l
				if final {
					changed++
				}
			}
		}
	}
	for _, x := range ball {
		dist[x] = -1
	}
	t.ball = ball
	return changed
}
