package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"mega/internal/graph"
	"mega/internal/models"
	"mega/internal/serve"
	"mega/internal/traverse"
)

// sizeClass is one graph population: random trees on nodes vertices plus
// chords extra edges. pool is the class's share of the 64-graph warm pool,
// and doubles as its draw weight for never-seen graphs, so the hit and the
// cold population have one size distribution (38/19/7 of 64, the nearest
// whole split to the load harness's 0.6/0.3/0.1). load.Workload.Plan draws
// hits uniformly from an 8-per-class pool but misses by class weight, which
// makes its all-hit mix larger — and slower — than its all-miss mix.
type sizeClass struct{ nodes, chords, pool int }

var sizeClasses = []sizeClass{{32, 6, 38}, {96, 18, 19}, {224, 40, 7}}

const poolSize = 64 // sum of sizeClass.pool

// Vocabulary of the served model (Config.NodeTypes / EdgeTypes).
const (
	nodeTypes = 8
	edgeTypes = 4
)

// edgeKey orders an undirected pair as (min, max), the form /update appends.
func edgeKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// treeChords samples a connected graph: a random tree on n vertices plus
// chords distinct extra edges, as a wire-format edge list.
func treeChords(rng *rand.Rand, n, chords int) [][2]int32 {
	tree := graph.RandomTree(rng, n)
	edges := make([][2]int32, 0, tree.NumEdges()+chords)
	seen := make(map[[2]int32]bool, tree.NumEdges()+chords)
	for _, e := range tree.Edges() {
		edges = append(edges, [2]int32{e.Src, e.Dst})
		seen[edgeKey(e.Src, e.Dst)] = true
	}
	for len(edges) < tree.NumEdges()+chords {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if k := edgeKey(u, v); u != v && !seen[k] {
			seen[k] = true
			edges = append(edges, k)
		}
	}
	return edges
}

// predictBody builds one pre-marshalled /predict body over a fresh
// tree-plus-chords topology of class sc with in-vocabulary features.
func predictBody(rng *rand.Rand, sc sizeClass) []byte {
	req := serve.GraphRequest{NumNodes: sc.nodes, Edges: treeChords(rng, sc.nodes, sc.chords)}
	req.NodeFeats = make([]int32, sc.nodes)
	for i := range req.NodeFeats {
		req.NodeFeats[i] = int32(rng.Intn(nodeTypes))
	}
	req.EdgeFeats = make([]int32, len(req.Edges))
	for i := range req.EdgeFeats {
		req.EdgeFeats[i] = int32(rng.Intn(edgeTypes))
	}
	return mustJSON(req)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of ints and strings always marshal
	}
	return b
}

// poolBodies builds the warm pool: exactly sizeClass.pool graphs per class.
func poolBodies(rng *rand.Rand) [][]byte {
	var out [][]byte
	for _, sc := range sizeClasses {
		for i := 0; i < sc.pool; i++ {
			out = append(out, predictBody(rng, sc))
		}
	}
	return out
}

// classSequence returns the size class of each of n requests: shuffled
// blocks of poolSize, each holding every class exactly sizeClass.pool times.
// Like the arrival timeline it is frozen, not drawn from -seed: a large
// graph landing in a burst is what makes a tail, so how sizes fall on the
// timeline is the workload's shape. What the seed varies is which graph of
// that size a request carries.
func classSequence(n int) []int {
	rng := rand.New(rand.NewSource(timelineSeed))
	block := make([]int, 0, poolSize)
	for ci, sc := range sizeClasses {
		for i := 0; i < sc.pool; i++ {
			block = append(block, ci)
		}
	}
	out := make([]int, 0, n+poolSize)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// hitBodies draws n requests from the pool, a uniformly drawn member of the
// sequence's class each time. poolBodies lays the pool out class by class.
func hitBodies(rng *rand.Rand, pool [][]byte, n int) [][]byte {
	first := make([]int, len(sizeClasses))
	for ci := 1; ci < len(sizeClasses); ci++ {
		first[ci] = first[ci-1] + sizeClasses[ci-1].pool
	}
	out := make([][]byte, n)
	for i, ci := range classSequence(n) {
		out[i] = pool[first[ci]+rng.Intn(sizeClasses[ci].pool)]
	}
	return out
}

// coldBodies builds n never-seen topologies over the same class sequence.
func coldBodies(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i, ci := range classSequence(n) {
		out[i] = predictBody(rng, sizeClasses[ci])
	}
	return out
}

// Lineages of the update_stream workload: Barabási–Albert graphs that a
// stream of one-edge /update batches keeps mutating.
const (
	numLineages = 4
	baNodes     = 2000
	baAttach    = 3
)

type updateOp struct {
	add  bool
	edge [2]int32
}

// lineage is one mutable graph and its pre-planned mutation stream. Every
// op is valid against the state the ops before it leave, so no /update of a
// run can be refused.
type lineage struct {
	base [][2]int32
	ops  []updateOp

	mu   sync.Mutex // serialises the lineage's in-flight updates
	fp   string     // fingerprint the previous response returned
	next int        // ops sent so far
}

// newLineage plans nOps mutations: adds and removes alternate, and the
// endpoints alternate (per add/remove pair) between uniform vertices and
// the last quarter of vertices the base graph's path visits.
// Late endpoints leave a long replayable prefix (a splice); uniform ones
// often land early in the path (a short prefix, or a rebuild), so one
// stream exercises both repair kinds.
func newLineage(rng *rand.Rand, nOps int) (*lineage, error) {
	g := graph.BarabasiAlbert(rng, baNodes, baAttach)
	ln := &lineage{}
	for _, e := range g.Edges() {
		ln.base = append(ln.base, [2]int32{e.Src, e.Dst})
	}
	res, err := traverse.Run(g, models.MegaOptions{}.TraverseOptions())
	if err != nil {
		return nil, fmt.Errorf("lineage traversal: %w", err)
	}
	// Vertices in first-visit order; the last quarter of them is "late".
	var order []int32
	seen := make([]bool, baNodes)
	for _, v := range res.Path {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	late := order[len(order)*3/4:]
	if len(late) < 2 {
		return nil, fmt.Errorf("lineage: %d late vertices, want >= 2", len(late))
	}
	isLate := make([]bool, baNodes)
	for _, v := range late {
		isLate[v] = true
	}

	edges := append([][2]int32(nil), ln.base...)
	has := make(map[[2]int32]bool, len(edges))
	for _, e := range edges {
		has[edgeKey(e[0], e[1])] = true
	}
	removeAt := func(i int) [2]int32 {
		e := edges[i]
		delete(has, edgeKey(e[0], e[1]))
		edges = append(edges[:i], edges[i+1:]...)
		return e
	}
	for k := 0; k < nOps; k++ {
		lateStyle := (k/2)%2 == 1
		if k%2 == 0 {
			var e [2]int32
			for {
				u, v := int32(rng.Intn(baNodes)), int32(rng.Intn(baNodes))
				if lateStyle {
					u, v = late[rng.Intn(len(late))], late[rng.Intn(len(late))]
				}
				if e = edgeKey(u, v); u != v && !has[e] {
					break
				}
			}
			has[e] = true
			edges = append(edges, e)
			ln.ops = append(ln.ops, updateOp{add: true, edge: e})
			continue
		}
		at := rng.Intn(len(edges))
		if lateStyle {
			// Scan from a random offset for an edge between late vertices;
			// the add before this one guarantees there is one.
			for i := range edges {
				j := (at + i) % len(edges)
				if isLate[edges[j][0]] && isLate[edges[j][1]] {
					at = j
					break
				}
			}
		}
		ln.ops = append(ln.ops, updateOp{edge: removeAt(at)})
	}
	return ln, nil
}

// edgesAfter replays the first k ops on the base edge list the way /update
// does: a remove compacts the list preserving order, an add appends
// (min, max). A /predict shipping this order hits the published cache entry.
func (ln *lineage) edgesAfter(k int) [][2]int32 {
	edges := append([][2]int32(nil), ln.base...)
	for _, op := range ln.ops[:k] {
		if op.add {
			edges = append(edges, op.edge)
			continue
		}
		key := edgeKey(op.edge[0], op.edge[1])
		for i, e := range edges {
			if edgeKey(e[0], e[1]) == key {
				edges = append(edges[:i], edges[i+1:]...)
				break
			}
		}
	}
	return edges
}

// request is op as the /update that continues from fingerprint fp.
func (op updateOp) request(fp string) serve.UpdateRequest {
	req := serve.UpdateRequest{Fingerprint: fp}
	if op.add {
		req.Add = [][2]int32{op.edge}
	} else {
		req.Remove = [][2]int32{op.edge}
	}
	return req
}
