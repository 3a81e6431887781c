package serve

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mega/internal/dynamic"
	"mega/internal/graph"
	"mega/internal/models"
)

// The mutation subsystem turns the server's read-only representation cache
// into a versioned store over evolving graphs: POST /update applies an edge
// insert/delete batch against a cached fingerprint, repairs the path
// representation incrementally (prefix replay + band splice, falling back
// to a rebuild when the WL-delta policy says patching would not pay), and
// publishes the result under the successor fingerprint so the next /predict
// of the mutated graph is a cache hit.
//
// Sessions are copy-on-write by construction: a dynamic.Maintainer never
// mutates a committed rep in place, so the PreparedRep snapshots published
// into the RepCache stay immutable and safe to share with in-flight forward
// passes. Concurrent updates against the same base fingerprint fork — the
// first request takes the live session, later ones re-adopt from the cached
// snapshot — so every client observes a consistent lineage.

// Mutation subsystem errors (beyond the dynamic package's own taxonomy).
var (
	// ErrUnknownFingerprint rejects an update whose base fingerprint is in
	// neither the session pool nor the representation cache; HTTP maps it
	// to 404 — the client must re-send the full graph via "base".
	ErrUnknownFingerprint = errors.New("serve: unknown base fingerprint")
	// ErrMutationDisabled rejects updates on servers that cannot maintain
	// path representations (non-MEGA engine); HTTP maps it to 501.
	ErrMutationDisabled = errors.New("serve: mutation requires the MEGA engine")
)

// mutSession is one mutable lineage: a maintainer plus the lock that
// serialises batches against it. The pool hands a session to at most one
// request at a time (take removes it), so the mutex only guards against a
// session being re-keyed while a late Rebuild call still holds it.
type mutSession struct {
	mu sync.Mutex
	m  *dynamic.Maintainer
}

// mutatorPool is an LRU of mutation sessions keyed by their current
// (pre-update) fingerprint. Capacity bounds resident maintainers — each
// holds a live graph, WL tracker, and traversal — independently of the
// RepCache, whose entries stay cheap immutable snapshots.
type mutatorPool struct {
	mu       sync.Mutex
	capacity int
	order    *list.List
	items    map[graph.Fingerprint]*list.Element
}

type mutEntry struct {
	key  graph.Fingerprint
	sess *mutSession
}

func newMutatorPool(capacity int) *mutatorPool {
	return &mutatorPool{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[graph.Fingerprint]*list.Element),
	}
}

// take removes and returns the session for key, if resident. Removal is the
// fork point: a concurrent update against the same fingerprint misses here
// and re-adopts from the immutable cache snapshot instead of racing.
func (p *mutatorPool) take(key graph.Fingerprint) (*mutSession, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.items[key]
	if !ok {
		return nil, false
	}
	p.order.Remove(el)
	delete(p.items, key)
	return el.Value.(*mutEntry).sess, true
}

// put re-homes a session under its successor fingerprint, evicting the
// least recently touched lineage beyond capacity. Evicted sessions are
// simply dropped: their published snapshots remain in the RepCache, so the
// lineage can be re-adopted later at the cost of one Adopt.
func (p *mutatorPool) put(key graph.Fingerprint, sess *mutSession) {
	if p.capacity <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		el.Value.(*mutEntry).sess = sess
		p.order.MoveToFront(el)
		return
	}
	for p.order.Len() >= p.capacity {
		oldest := p.order.Back()
		p.order.Remove(oldest)
		delete(p.items, oldest.Value.(*mutEntry).key)
	}
	p.items[key] = p.order.PushFront(&mutEntry{key: key, sess: sess})
}

// Len reports resident sessions (the mutation_sessions gauge).
func (p *mutatorPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len()
}

// UpdateRequest is the POST /update JSON body. The base representation is
// addressed either by the fingerprint of a previously served or updated
// graph, or — when the server has never seen it — by the full graph in
// Base (same shape as /predict). Removes apply before adds, and the whole
// batch is validated against the base graph before any mutation lands, so
// a rejected batch leaves the lineage untouched.
type UpdateRequest struct {
	// Fingerprint addresses the base graph by its canonical topology hash
	// (lowercase hex, as returned in UpdateResponse.Fingerprint).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Base supplies the full graph when no fingerprint is known. Node and
	// edge features are ignored — the path representation covers topology
	// only.
	Base *GraphRequest `json:"base,omitempty"`
	// Remove lists undirected edges to delete; each must exist.
	Remove [][2]int32 `json:"remove,omitempty"`
	// Add lists undirected edges to insert; each must be absent, in range,
	// and not a self-loop.
	Add [][2]int32 `json:"add,omitempty"`
}

// UpdateResponse reports the successor state after a batch. Fingerprint is
// the canonical hash of the mutated graph's edge list — removes compact the
// COO list preserving order, adds append as (min,max) — so a /predict that
// ships the same canonical edge order hits the published cache entry.
type UpdateResponse struct {
	Fingerprint string `json:"fingerprint"`
	NumNodes    int    `json:"num_nodes"`
	NumEdges    int    `json:"num_edges"`
	// PathLen is the maintained traversal's length; Expansion divides it by
	// NumNodes (the paper's path-expansion diagnostic).
	PathLen   int     `json:"path_len"`
	Expansion float64 `json:"expansion"`
	// Splices/Rebuilds count the repair operations this batch performed —
	// a multi-mutation batch is absorbed by ONE fused repair, so these sum
	// to 1 for batches of 2+ mutations. PrefixRows totals the replayed
	// prefix rows across splices (the work incremental maintenance avoided
	// re-deciding).
	Splices    int `json:"splices"`
	Rebuilds   int `json:"rebuilds"`
	PrefixRows int `json:"prefix_rows"`
	// Adopted reports that this update started a fresh session (from a
	// cached snapshot or the supplied base) rather than continuing a
	// resident one.
	Adopted bool `json:"adopted"`
}

// Update applies one mutation batch and publishes the successor
// representation. It is the programmatic core of POST /update; safe for
// concurrent callers.
func (s *Server) Update(req UpdateRequest) (UpdateResponse, error) {
	s.metrics.updates.Add(1)
	start := time.Now()
	resp, err := s.update(req)
	s.metrics.update.observe(time.Since(start))
	if err != nil {
		s.metrics.updateErrors.Add(1)
	}
	return resp, err
}

func (s *Server) update(req UpdateRequest) (UpdateResponse, error) {
	if s.opts.Engine != models.EngineMega {
		return UpdateResponse{}, ErrMutationDisabled
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return UpdateResponse{}, ErrClosed
	}

	sess, adopted, err := s.resolveSession(req)
	if err != nil {
		return UpdateResponse{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()

	removes := pairList(req.Remove)
	adds := pairList(req.Add)
	t0 := time.Now()
	repairs, err := sess.m.ApplyBatch(removes, adds)
	s.metrics.repair.observe(time.Since(t0))
	if err != nil {
		// Validation failures leave the maintainer untouched; keep the
		// session resident under its unchanged fingerprint so the lineage
		// survives a bad batch. Internal failures poison the maintainer
		// (dynamic.ErrBroken thereafter), so those sessions are dropped —
		// the lineage re-adopts from its last published snapshot.
		if isMutationValidationErr(err) {
			s.mutators.put(sess.m.Fingerprint(), sess)
		}
		return UpdateResponse{}, err
	}
	s.metrics.mutationsApplied.Add(uint64(len(removes) + len(adds)))

	next := sess.m.Fingerprint()
	resp := UpdateResponse{
		Fingerprint: next.String(),
		NumNodes:    sess.m.NumNodes(),
		NumEdges:    sess.m.NumEdges(),
		PathLen:     len(sess.m.Result().Path),
		Adopted:     adopted,
	}
	if resp.NumNodes > 0 {
		resp.Expansion = float64(resp.PathLen) / float64(resp.NumNodes)
	}
	for _, r := range repairs {
		switch r.Kind {
		case dynamic.RepairSplice:
			resp.Splices++
			resp.PrefixRows += r.PrefixRows
		case dynamic.RepairRebuild:
			resp.Rebuilds++
		}
	}
	s.metrics.repairSplices.Add(uint64(resp.Splices))
	s.metrics.repairRebuilds.Add(uint64(resp.Rebuilds))

	// Publish the successor snapshot so /predict of the mutated graph is a
	// cache hit, then re-home the session under the new fingerprint. The
	// snapshot shares no mutable state with the session: repairs always
	// build fresh reps and swap pointers.
	s.cache.Put(s.repKey(next), &models.PreparedRep{Rep: sess.m.Rep(), Res: sess.m.Result()})
	s.mutators.put(next, sess)
	return resp, nil
}

// resolveSession finds or creates the mutable lineage for a request's base:
// a resident session by fingerprint, an Adopt of a cached snapshot, or a
// fresh maintainer over the supplied base graph (whose representation is
// published immediately, making the base itself cache-hot).
func (s *Server) resolveSession(req UpdateRequest) (*mutSession, bool, error) {
	hasFP := req.Fingerprint != ""
	if hasFP == (req.Base != nil) {
		return nil, false, fmt.Errorf("%w: exactly one of fingerprint or base is required", ErrInvalidInstance)
	}
	if hasFP {
		fp, err := graph.ParseFingerprint(req.Fingerprint)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
		}
		if sess, ok := s.mutators.take(fp); ok {
			return sess, false, nil
		}
		prep, ok := s.cache.Get(s.repKey(fp))
		if !ok {
			return nil, false, fmt.Errorf("%w: %s", ErrUnknownFingerprint, req.Fingerprint)
		}
		m, err := dynamic.Adopt(prep.Rep, prep.Res, s.opts.Mega.TraverseOptions(), s.opts.MutationPolicy)
		if err != nil {
			return nil, false, err
		}
		s.metrics.sessionAdoptions.Add(1)
		return &mutSession{m: m}, true, nil
	}

	inst, err := req.Base.Instance()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	fp := inst.G.Fingerprint()
	if sess, ok := s.mutators.take(fp); ok {
		return sess, false, nil
	}
	var m *dynamic.Maintainer
	if prep, ok := s.cache.Get(s.repKey(fp)); ok {
		m, err = dynamic.Adopt(prep.Rep, prep.Res, s.opts.Mega.TraverseOptions(), s.opts.MutationPolicy)
	} else {
		m, err = dynamic.NewMaintainerPolicy(inst.G, s.opts.Mega.TraverseOptions(), s.opts.MutationPolicy)
		if err == nil {
			s.cache.Put(s.repKey(fp), &models.PreparedRep{Rep: m.Rep(), Res: m.Result()})
		}
	}
	if err != nil {
		return nil, false, err
	}
	s.metrics.sessionAdoptions.Add(1)
	return &mutSession{m: m}, true, nil
}

// isMutationValidationErr reports whether an ApplyBatch error came from
// batch validation (maintainer state untouched) rather than a mid-repair
// internal failure.
func isMutationValidationErr(err error) bool {
	return errors.Is(err, dynamic.ErrEdgeExists) ||
		errors.Is(err, dynamic.ErrEdgeMissing) ||
		errors.Is(err, dynamic.ErrVertexRange) ||
		errors.Is(err, dynamic.ErrSelfLoop)
}

func pairList(edges [][2]int32) [][2]graph.NodeID {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]graph.NodeID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.NodeID{e[0], e[1]}
	}
	return out
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	resp, err := s.Update(req)
	switch {
	case errors.Is(err, dynamic.ErrEdgeExists), errors.Is(err, dynamic.ErrEdgeMissing):
		httpError(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, ErrInvalidInstance),
		errors.Is(err, dynamic.ErrVertexRange),
		errors.Is(err, dynamic.ErrSelfLoop),
		errors.Is(err, graph.ErrEdgeOutOfRange):
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrUnknownFingerprint):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, ErrMutationDisabled), errors.Is(err, dynamic.ErrUnsupported):
		httpError(w, http.StatusNotImplemented, err.Error())
		return
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
