package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mega/internal/dynamic"
	"mega/internal/graph"
	"mega/internal/models"
)

// The mutation subsystem turns the server's read-only representation cache
// into a versioned store over evolving graphs: POST /update resolves the
// base PreparedRep from the cache (or preprocesses an inline base), runs
// dynamic.Apply on it — validate the edge insert/delete batch, rebuild the
// successor graph's path representation once — and publishes the result
// under the successor fingerprint, so the next /predict of the mutated graph
// is a cache hit.
//
// A lineage is nothing but its reps in the cache. Apply never mutates its
// base, so published reps stay immutable and safe to share with in-flight
// forward passes, concurrent updates against one fingerprint simply fork,
// and no update holds state that another one could find half applied.

// Mutation subsystem errors (beyond the dynamic package's own taxonomy).
var (
	// ErrUnknownFingerprint rejects an update whose base fingerprint is not
	// in the representation cache (never seen, or evicted); HTTP maps it to
	// 404 — the client must re-send the full graph via "base".
	ErrUnknownFingerprint = errors.New("serve: unknown base fingerprint")
	// ErrMutationDisabled rejects updates on servers that cannot maintain
	// path representations (non-MEGA engine); HTTP maps it to 501.
	ErrMutationDisabled = errors.New("serve: mutation requires the MEGA engine")
)

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

	base, err := s.resolveBase(req)
	if err != nil {
		return UpdateResponse{}, err
	}
	removes := pairList(req.Remove)
	adds := pairList(req.Add)
	t0 := time.Now()
	rep, res, err := dynamic.Apply(base.Res.Graph, s.opts.Mega.TraverseOptions(), removes, adds)
	s.metrics.repair.observe(time.Since(t0))
	if err != nil {
		return UpdateResponse{}, err
	}
	next := base // an empty batch rebuilds nothing
	if rep != nil {
		next = &models.PreparedRep{Rep: rep, Res: res}
	}
	s.metrics.mutationsApplied.Add(uint64(len(removes) + len(adds)))

	g := next.Res.Graph
	fp := g.Fingerprint()
	resp := UpdateResponse{
		Fingerprint: fp.String(),
		NumNodes:    g.NumNodes(),
		NumEdges:    g.NumEdges(),
		PathLen:     len(next.Res.Path),
	}
	if resp.NumNodes > 0 {
		resp.Expansion = float64(resp.PathLen) / float64(resp.NumNodes)
	}
	// Publish the successor so /predict of the mutated graph is a cache hit
	// and the next update of the lineage can address it.
	s.cache.Put(s.repKey(fp), next)
	return resp, nil
}

// resolveBase finds the representation a request's batch applies to: the
// cached rep of its fingerprint, or of its inline base graph. A base the
// cache does not hold is checked against dynamic's contract, preprocessed
// and published, which makes the base itself cache-hot; a refused base
// publishes nothing.
func (s *Server) resolveBase(req UpdateRequest) (*models.PreparedRep, error) {
	hasFP := req.Fingerprint != ""
	if hasFP == (req.Base != nil) {
		return nil, fmt.Errorf("%w: exactly one of fingerprint or base is required", ErrInvalidInstance)
	}
	if hasFP {
		fp, err := graph.ParseFingerprint(req.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
		}
		prep, ok := s.cache.Get(s.repKey(fp))
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownFingerprint, req.Fingerprint)
		}
		return prep, nil
	}

	inst, err := req.Base.Instance()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	key := s.repKey(inst.G.Fingerprint())
	if prep, ok := s.cache.Get(key); ok {
		return prep, nil
	}
	if err := dynamic.Supported(inst.G, s.opts.Mega.TraverseOptions()); err != nil {
		return nil, err
	}
	prep, err := models.PrepareMega(inst.G, s.opts.Mega)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, prep)
	return prep, nil
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
