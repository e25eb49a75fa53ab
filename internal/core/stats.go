package core

import "sync/atomic"

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
// goroutine at a time. The engine keeps the running total of every
// query's tally itself (QueryStats), so no caller needs to merge views.
type Stats struct {
	// Queries counts finished queries: one per single query, batch or
	// join, and on a sharded engine one per shard a query evaluated.
	Queries int64
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

	// Count-pushdown counters.
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
	dst, src := s.counters(), o.counters()
	for i, p := range dst {
		*p += *src[i]
	}
}

// numCounters is the number of int64 counters in a Stats.
const numCounters = 19

// counters lists the addresses of every counter of s, so that Add and
// the engine totals walk them in one loop. TestStatsCountersComplete
// pins that the list covers every field.
func (s *Stats) counters() [numCounters]*int64 {
	return [numCounters]*int64{
		&s.Queries, &s.TilesVisited, &s.PartitionsScanned, &s.EntriesScanned,
		&s.ClassScanned[0], &s.ClassScanned[1], &s.ClassScanned[2], &s.ClassScanned[3],
		&s.Comparisons, &s.Results, &s.DuplicatesAvoided, &s.BinarySearches,
		&s.SecondaryFilterTests, &s.SecondaryFilterHits, &s.RefinementTests, &s.DistanceComputations,
		&s.FastCounts, &s.FastTiles, &s.BulkEntries,
	}
}

// totals is the engine's always-on accumulator behind QueryStats. One
// instance is allocated per New and shared (by pointer) with every View
// and CloneCOW snapshot, so the counters are engine-lifetime totals that
// survive publishes.
type totals struct {
	query [numCounters]atomic.Int64

	// cowBytes is the write-side sibling of the query counters: bytes of
	// tile pages, directory pages and tile runs copied on first touch
	// by copy-on-write mutations (LiveStats.COWBytes).
	cowBytes atomic.Int64
}

// add adds one finished query's (or batch's) tally to the totals: one
// atomic add per non-zero counter, no lock.
func (m *totals) add(t *Stats) {
	for i, p := range t.counters() {
		if *p != 0 {
			m.query[i].Add(*p)
		}
	}
}

// QueryStats snapshots the engine's query counters: the sum of the
// tallies of every query finished on the index, its views and its
// copy-on-write snapshots. Counters are read one by one while queries
// may be finishing, so a snapshot taken under load is not a cut between
// two queries.
func (ix *Index) QueryStats() Stats {
	var out Stats
	for i, p := range out.counters() {
		*p = ix.met.query[i].Load()
	}
	return out
}
