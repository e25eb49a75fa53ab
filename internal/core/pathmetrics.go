package core

import "sync/atomic"

// PathStats is a snapshot of the adaptive query-execution counters: how
// often the count pushdown answered a query and how much per-entry work
// the fast paths avoided. Unlike a view's Stats (per query), these counters
// are engine-lifetime totals shared by every View and copy-on-write
// snapshot descending from the same index: the end of every query
// flushes its Stats tally's FastCounts, FastTiles and BulkEntries here.
type PathStats struct {
	// FastCounts counts count-only queries answered by the count
	// pushdown kernels (WindowCount, DiskCount, the batch counts)
	// instead of a streamed scan.
	FastCounts int64
	// FastTiles counts tiles answered wholesale because their comparison
	// plan was empty — the whole tile lies strictly inside the query, so
	// the selected classes were counted (or emitted) without touching a
	// single coordinate (Lemmas 3-4).
	FastTiles int64
	// BulkEntries counts entries counted or emitted in bulk — whole
	// class slices accepted with zero per-entry comparisons.
	BulkEntries int64
}

// pathMetrics is the always-on atomic accumulator behind PathStats. One
// instance is allocated per New and shared (by pointer) with every View
// and CloneCOW snapshot, so server-side snapshots keep feeding the same
// engine-lifetime counters.
type pathMetrics struct {
	fastCounts  atomic.Int64
	fastTiles   atomic.Int64
	bulkEntries atomic.Int64

	// cowBytes is the write-side sibling of the counters above: bytes of
	// tile pages, directory pages and class slices copied on first touch
	// by copy-on-write mutations (LiveStats.COWBytes).
	cowBytes atomic.Int64
}

// flush adds one query's (or batch's) count-pushdown counters
// to the shared totals: a handful of atomics per query, not one per tile.
func (m *pathMetrics) flush(t *Stats) {
	if t.FastCounts != 0 {
		m.fastCounts.Add(t.FastCounts)
	}
	if t.FastTiles != 0 {
		m.fastTiles.Add(t.FastTiles)
	}
	if t.BulkEntries != 0 {
		m.bulkEntries.Add(t.BulkEntries)
	}
}

func (m *pathMetrics) snapshot() PathStats {
	return PathStats{
		FastCounts:  m.fastCounts.Load(),
		FastTiles:   m.fastTiles.Load(),
		BulkEntries: m.bulkEntries.Load(),
	}
}

// Add accumulates o into s; the shard engine sums per-shard snapshots
// with it.
func (s *PathStats) Add(o PathStats) {
	s.FastCounts += o.FastCounts
	s.FastTiles += o.FastTiles
	s.BulkEntries += o.BulkEntries
}

// QueryPathStats snapshots the adaptive-kernel counters. Counters are
// cumulative over the index lifetime and shared with all views and
// snapshots of the same engine.
func (ix *Index) QueryPathStats() PathStats { return ix.met.snapshot() }
