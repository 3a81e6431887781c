package traverse

import (
	"crypto/sha256"
	"fmt"
)

// OptionsDigest is a canonical hash of an Options value. Serving and
// distributed-worker caches key prepared path representations by
// (topology fingerprint, options digest): two option sets that could
// produce different reps must never share a cache entry (the PR 1 design
// keyed by topology alone, which silently served stale reps if options
// ever differed).
type OptionsDigest [sha256.Size]byte

// Digest returns the canonical hash of o. The encoding is versioned: any
// change to Options' semantics (a new field, a meaning change) must bump
// the version string so old digests can never alias new option sets.
// Floats are rendered with %g, which is injective on float64 in Go.
func (o Options) Digest() OptionsDigest {
	return sha256.Sum256([]byte(fmt.Sprintf(
		"mega/traverse-options.v2\nw=%d ec=%g de=%g ds=%d st=%d sd=%d sf=%g ss=%d\n",
		o.Window, o.EdgeCoverage, o.DropEdges, o.DropStrategy, o.Start, o.Seed,
		o.SparsifyFraction, o.SparsifySeed,
	)))
}
