package core

import "sync/atomic"

// Stats collects instrumentation counters during query evaluation.
// Counters let tests assert the paper's analytical claims (e.g.,
// Corollary 1: at most two comparisons per rectangle in relevant tiles of
// a multi-tile window query) and power the Figure 6 work breakdowns.
//
// To collect stats, give each in-flight query (or each single-threaded
// experiment loop) its own view of the index via Index.View, carrying a
// private Stats, and merge per-query counters into a shared AtomicStats
// afterwards where a total is wanted. Any number of views can run
// queries concurrently, with each other and with uninstrumented readers;
// a view writes its Stats without synchronization, so one Stats belongs
// to one view used by one goroutine at a time.
type Stats struct {
	// TilesVisited counts tiles examined across queries.
	TilesVisited int64
	// PartitionsScanned counts secondary partitions (tile classes) read.
	PartitionsScanned int64
	// EntriesScanned counts entries inspected in scanned partitions.
	EntriesScanned int64
	// ClassScanned counts, per secondary class (A, B, C, D), the entries
	// held by the partitions selected for scanning — the per-class work
	// breakdown of the Lemma 1-2 class selection. On the plain scan path
	// the four counters sum to EntriesScanned; on the decomposed
	// (2-layer+) path EntriesScanned may be lower, because binary searches
	// report coordinate ranges without touching every entry.
	ClassScanned [4]int64
	// Comparisons counts coordinate comparisons executed during the
	// filtering step (the quantity Lemmas 3-4 minimize).
	Comparisons int64
	// Results counts entries reported by the filtering step.
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
}

// AtomicStats is a concurrency-safe accumulator of query counters. It is
// the aggregation half of the concurrent stats mode (see Stats): each
// query runs on an Index.View with a private Stats, then calls Observe
// once to merge its counters. The zero value is ready to use.
type AtomicStats struct {
	queries atomic.Int64

	tilesVisited      atomic.Int64
	partitionsScanned atomic.Int64
	entriesScanned    atomic.Int64
	classScanned      [4]atomic.Int64
	comparisons       atomic.Int64
	results           atomic.Int64
	duplicatesAvoided atomic.Int64
	binarySearches    atomic.Int64

	secondaryFilterTests atomic.Int64
	secondaryFilterHits  atomic.Int64
	refinementTests      atomic.Int64
	distanceComputations atomic.Int64
}

// Observe merges the counters of one finished query (or batch of queries
// measured together) into the accumulator. Safe for concurrent use.
func (a *AtomicStats) Observe(s *Stats) {
	a.queries.Add(1)
	a.tilesVisited.Add(s.TilesVisited)
	a.partitionsScanned.Add(s.PartitionsScanned)
	a.entriesScanned.Add(s.EntriesScanned)
	for c := range s.ClassScanned {
		a.classScanned[c].Add(s.ClassScanned[c])
	}
	a.comparisons.Add(s.Comparisons)
	a.results.Add(s.Results)
	a.duplicatesAvoided.Add(s.DuplicatesAvoided)
	a.binarySearches.Add(s.BinarySearches)
	a.secondaryFilterTests.Add(s.SecondaryFilterTests)
	a.secondaryFilterHits.Add(s.SecondaryFilterHits)
	a.refinementTests.Add(s.RefinementTests)
	a.distanceComputations.Add(s.DistanceComputations)
}

// Queries returns how many times Observe has been called.
func (a *AtomicStats) Queries() int64 { return a.queries.Load() }

// Snapshot returns a point-in-time copy of the accumulated counters.
// Individual counters are read atomically; the snapshot as a whole is not
// a single atomic cut across counters (concurrent Observe calls may be
// partially included), which is fine for monitoring.
func (a *AtomicStats) Snapshot() Stats {
	var cls [4]int64
	for c := range cls {
		cls[c] = a.classScanned[c].Load()
	}
	return Stats{
		TilesVisited:         a.tilesVisited.Load(),
		PartitionsScanned:    a.partitionsScanned.Load(),
		EntriesScanned:       a.entriesScanned.Load(),
		ClassScanned:         cls,
		Comparisons:          a.comparisons.Load(),
		Results:              a.results.Load(),
		DuplicatesAvoided:    a.duplicatesAvoided.Load(),
		BinarySearches:       a.binarySearches.Load(),
		SecondaryFilterTests: a.secondaryFilterTests.Load(),
		SecondaryFilterHits:  a.secondaryFilterHits.Load(),
		RefinementTests:      a.refinementTests.Load(),
		DistanceComputations: a.distanceComputations.Load(),
	}
}
