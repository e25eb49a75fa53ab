package core

import "sync/atomic"

// PathStats is a snapshot of the adaptive query-execution counters: how
// often the count pushdown answered a query and how much per-entry work
// the fast paths avoided. Unlike Stats (opt-in, per query), these counters
// are always on — they are engine-lifetime totals shared by every View
// and copy-on-write snapshot descending from the same index, updated
// with one batched atomic flush per query.
type PathStats struct {
	// FastCounts counts count-only window queries answered by the
	// O(tiles) pushdown kernel (WindowCount) instead of a streamed
	// scan.
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

// pathTally accumulates per-query kernel work on the stack; flush merges
// it into the shared metrics with a handful of atomics per query instead
// of one per tile.
type pathTally struct {
	fastTiles   int64
	bulkEntries int64
}

func (m *pathMetrics) flush(t *pathTally) {
	if m == nil {
		return
	}
	if t.fastTiles != 0 {
		m.fastTiles.Add(t.fastTiles)
	}
	if t.bulkEntries != 0 {
		m.bulkEntries.Add(t.bulkEntries)
	}
}

func (m *pathMetrics) snapshot() PathStats {
	if m == nil {
		return PathStats{}
	}
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
