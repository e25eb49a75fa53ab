package core

import "sync"

// Stats collects instrumentation counters during query evaluation.
// Counters let tests assert the paper's analytical claims (e.g.,
// Corollary 1: at most two comparisons per rectangle in relevant tiles of
// a multi-tile window query) and power the Figure 6 work breakdowns.
//
// Every query counts its work into one Stats tally on its own stack (one
// per worker in a batch); its entry point then adds the tally to the
// Stats of the view it ran on (Index.View), if any, so attaching a Stats
// or a Trace never changes which kernel runs. A view writes its Stats
// without synchronization: one Stats belongs to one view used by one
// goroutine at a time. Merge per-query counters into a shared
// AtomicStats where a total is wanted.
type Stats struct {
	// TilesVisited counts tiles read from the directory. Interior tiles
	// the count pushdown answers from its prefix table are not read;
	// they count in FastTiles only.
	TilesVisited int64
	// PartitionsScanned counts secondary partitions (tile classes) read
	// entry by entry or binary searched.
	PartitionsScanned int64
	// EntriesScanned counts entries inspected in scanned partitions.
	EntriesScanned int64
	// ClassScanned counts, per secondary class (A, B, C, D), the entries
	// held by the partitions scanned — the per-class work breakdown of
	// the Lemma 1-2 class selection. On a plain index the four counters
	// sum to EntriesScanned; on the decomposed (2-layer+) path
	// EntriesScanned may be lower, because binary searches report
	// coordinate ranges without touching every entry. Partitions counted
	// wholesale are in BulkEntries instead.
	ClassScanned [4]int64
	// Comparisons counts coordinate comparisons executed during the
	// filtering step (the quantity Lemmas 3-4 minimize).
	Comparisons int64
	// Results counts entries reported by the filtering step (by a count
	// kernel: the count it returns).
	Results int64
	// DuplicatesAvoided counts entries skipped wholesale because their
	// class was disregarded by Lemmas 1-2 or, in kNN, because no object
	// of the class has this tile as its tile nearest to the query.
	DuplicatesAvoided int64
	// BinarySearches counts binary searches on decomposed tables.
	BinarySearches int64

	// Refinement-step counters (Section V).
	//
	// SecondaryFilterTests counts Lemma 5 coverage tests performed;
	// SecondaryFilterHits counts candidates accepted without refinement;
	// RefinementTests counts exact geometry tests executed;
	// DistanceComputations counts point distance evaluations in disk
	// and kNN queries (in kNN, one per distinct object examined).
	SecondaryFilterTests int64
	SecondaryFilterHits  int64
	RefinementTests      int64
	DistanceComputations int64

	// Count-pushdown counters, also totalled per engine in PathStats.
	//
	// FastCounts counts queries answered by a count kernel (WindowCount,
	// DiskCount and the batch counts, one per query); FastTiles counts
	// tiles answered wholesale, with no entry read (Lemmas 3-4: the tile
	// lies inside the query); BulkEntries counts the entries those tiles
	// and other whole partitions contributed without a comparison.
	FastCounts  int64
	FastTiles   int64
	BulkEntries int64
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.TilesVisited += o.TilesVisited
	s.PartitionsScanned += o.PartitionsScanned
	s.EntriesScanned += o.EntriesScanned
	for c := range s.ClassScanned {
		s.ClassScanned[c] += o.ClassScanned[c]
	}
	s.Comparisons += o.Comparisons
	s.Results += o.Results
	s.DuplicatesAvoided += o.DuplicatesAvoided
	s.BinarySearches += o.BinarySearches
	s.SecondaryFilterTests += o.SecondaryFilterTests
	s.SecondaryFilterHits += o.SecondaryFilterHits
	s.RefinementTests += o.RefinementTests
	s.DistanceComputations += o.DistanceComputations
	s.FastCounts += o.FastCounts
	s.FastTiles += o.FastTiles
	s.BulkEntries += o.BulkEntries
}

// AtomicStats is a concurrency-safe accumulator of query counters. It is
// the aggregation half of the concurrent stats mode (see Stats): each
// query runs on an Index.View with a private Stats, then calls Observe
// once to merge its counters. The zero value is ready to use.
type AtomicStats struct {
	mu      sync.Mutex
	queries int64
	sum     Stats
}

// Observe merges the counters of one finished query (or batch of queries
// measured together) into the accumulator. Safe for concurrent use.
func (a *AtomicStats) Observe(s *Stats) {
	a.mu.Lock()
	a.queries++
	a.sum.Add(s)
	a.mu.Unlock()
}

// Queries returns how many times Observe has been called.
func (a *AtomicStats) Queries() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// Snapshot returns a copy of the accumulated counters: a consistent cut,
// taken between two Observe calls.
func (a *AtomicStats) Snapshot() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}
