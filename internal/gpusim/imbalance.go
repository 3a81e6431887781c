package gpusim

// Workload-imbalance modelling (§II-B2 "Significant workload imbalance"):
// aggregation kernels assign one compute unit per destination vertex, so a
// skewed degree distribution leaves most units idle while the hub's unit
// grinds — the kernel runs until its longest segment finishes. GNNAdvisor's
// *neighbor grouping* splits oversized segments into average-degree chunks
// merged with atomics, trading tail latency for atomic traffic.

// SegmentStats summarises a segmented workload.
type SegmentStats struct {
	Segments int
	Total    int64
	Max      int64
	Mean     float64
}

// AnalyzeSegments computes the degree-segment statistics used by the
// imbalance model.
func AnalyzeSegments(segLens []int32) SegmentStats {
	st := SegmentStats{Segments: len(segLens)}
	for _, l := range segLens {
		st.Total += int64(l)
		if int64(l) > st.Max {
			st.Max = int64(l)
		}
	}
	if st.Segments > 0 {
		st.Mean = float64(st.Total) / float64(st.Segments)
	}
	return st
}

// ScatterSegments simulates destination-major aggregation: segLens[i] rows
// of rowBytes accumulate into destination i (consecutive destinations).
// Without grouping, kernel time is bounded below by the longest segment's
// serial work — the tail-latency effect. With grouping, segments split into
// mean-degree chunks (no tail) but every chunk merges through an extra
// atomic round trip.
func (s *Sim) ScatterSegments(name string, base Addr, segLens []int32, rowBytes int64, grouped bool) {
	k := s.stats(name, KindScatter)
	st := AnalyzeSegments(segLens)
	var tx, hits, misses int64
	addr := uint64(base)
	for _, l := range segLens {
		for r := int32(0); r < l; r++ {
			lines, miss := s.l2.accessBytes(addr, uint64(rowBytes))
			tx += lines
			misses += miss
			hits += lines - miss
		}
		addr += uint64(rowBytes)
	}
	compute := 2 * float64(st.Total)

	if grouped {
		// Neighbor grouping: extra atomic merge per chunk beyond the
		// first — a read-modify-write round trip per chunk.
		if st.Mean >= 1 {
			chunks := int64(0)
			group := int64(st.Mean + 0.5)
			if group < 1 {
				group = 1
			}
			for _, l := range segLens {
				c := (int64(l) + group - 1) / group
				if c > 1 {
					chunks += c - 1
				}
			}
			extra := chunks * (rowBytes + s.cfg.LineBytes - 1) / s.cfg.LineBytes
			tx += extra
			hits += extra
			compute += 2 * float64(chunks)
		}
		s.account(k, compute, tx, tx, hits, misses)
		return
	}

	// Unbalanced: the longest segment runs serially; charge its exposed
	// serial latency as additional stall beyond the balanced account.
	s.account(k, compute, tx, tx, hits, misses)
	if st.Mean > 0 && float64(st.Max) > st.Mean {
		linesPerRow := (rowBytes + s.cfg.LineBytes - 1) / s.cfg.LineBytes
		tail := float64(st.Max-int64(st.Mean)) * float64(linesPerRow) * s.cfg.L2Latency
		k.Cycles += tail
		k.StallCycles += tail
		s.cycles += tail
	}
}
