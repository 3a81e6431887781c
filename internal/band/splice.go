package band

import (
	"fmt"

	"mega/internal/graph"
	"mega/internal/traverse"
)

// Splice builds the band representation of a repaired traversal by reusing
// the prefix of an existing Rep. res is the full new traversal over g, whose
// first prefix path entries are identical to old.Path; band entries whose
// pair (i, i+o) lies entirely inside the prefix are copied from old (with
// edge IDs translated through eidRemap), and only entries touching the
// suffix are recomputed with adjacency lookups. The result is byte-identical
// to Build(g, res, old.Window) — Splice is a cost optimisation, not an
// approximation — so the canonical EdgeRefs ordering the shard planner
// relies on is preserved by construction.
//
// eidRemap translates old COO edge indices to their indices in g (the
// order-preserving compaction map after deletions); nil means identity
// (pure insertions keep existing IDs stable). A prefix band entry whose
// remapped edge is gone (-1) indicates a caller bug and returns an error.
func Splice(old *Rep, res *traverse.Result, g *graph.Graph, prefix int, eidRemap []int32) (*Rep, error) {
	if res.Window != old.Window {
		return nil, fmt.Errorf("band: splice window mismatch: old %d, new %d", old.Window, res.Window)
	}
	window := old.Window
	if window < 1 {
		return nil, fmt.Errorf("%w: %d", ErrWindowTooSmall, window)
	}
	L := len(res.Path)
	if prefix < 0 || prefix > L || prefix > len(old.Path) {
		return nil, fmt.Errorf("band: splice prefix %d out of range (new path %d, old path %d)", prefix, L, len(old.Path))
	}
	for i := 0; i < prefix; i++ {
		if res.Path[i] != old.Path[i] {
			return nil, fmt.Errorf("band: splice prefix disagrees at position %d: old %d, new %d", i, old.Path[i], res.Path[i])
		}
	}

	return fill(g, res.Path, window, old, prefix, eidRemap)
}
