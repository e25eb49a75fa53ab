package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// BatchStrategy selects how a batch of range queries is evaluated
// (Section VI of the paper).
type BatchStrategy int

const (
	// QueriesBased evaluates every query independently; in parallel mode
	// queries are assigned to threads round-robin. Simple but cache
	// agnostic: each query touches tiles all over memory.
	QueriesBased BatchStrategy = iota
	// TilesBased first accumulates, per tile, the subtasks of all queries
	// intersecting it, then processes tile by tile. Each tile's secondary
	// partitions stay hot in cache across all of its subtasks, which is
	// what makes the strategy scale with threads.
	TilesBased
)

// String implements fmt.Stringer.
func (s BatchStrategy) String() string {
	if s == TilesBased {
		return "tiles-based"
	}
	return "queries-based"
}

// batchShape describes one batch of range queries to runBatch: the three
// things Section VI needs to know about a query kind. Both strategies
// are schedules over them.
type batchShape struct {
	n int // queries in the batch
	// whole evaluates query q over its whole cover: the queries-based
	// unit of work. It returns q's count in a count batch (0 otherwise);
	// tally is the calling worker's, as in onTile.
	whole func(q int, tally *Stats) int
	// cover calls visit for every grid tile the evaluation of query q
	// reads (none for a query that matches nothing by construction).
	// runBatch calls it from one goroutine, twice per query, before the
	// first onTile.
	cover func(q int, visit func(tx, ty int))
	// onTile evaluates query q on the non-empty tile at slot of its
	// cover: the tiles-based subtask. It returns q's count on the tile in
	// a count batch (0 otherwise). tally is the calling worker's;
	// runBatch finishes the workers' tallies as one when all are done.
	onTile func(q int, slot int32, tx, ty int, tally *Stats) int
	// counts, set in a count batch only, receives every query's count;
	// each query is then one count-kernel answer (Stats.FastCounts).
	counts []int
}

// runBatch is the one scheduler behind every batch entry point, so the
// window and disk forms cannot drift apart: any strategy other than
// TilesBased, out-of-range values included, is QueriesBased, and
// threads <= 0 selects DefaultThreads(). It never starts more workers
// than it has tasks, and a single worker runs on the caller's goroutine.
func (ix *Index) runBatch(s batchShape, strategy BatchStrategy, threads int) {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	var sum Stats
	if s.counts != nil {
		sum.FastCounts = int64(s.n)
	}
	if strategy != TilesBased {
		workers := min(threads, s.n)
		tallies := make([]workerTally, workers)
		runWorkers(workers, func(w int) {
			// Round-robin assignment, as in the paper.
			for q := w; q < s.n; q += workers {
				if n := s.whole(q, &tallies[w].Stats); s.counts != nil {
					s.counts[q] = n
				}
			}
		})
		ix.finishWorkers(sum, tallies)
		return
	}

	// Step 1: accumulate the subtasks of every non-empty tile, with a
	// counting sweep first (the same two-pass idiom as the parallel
	// build). The accumulation is offsets into one slab, never a slice
	// header per tile: on a 1024x1024 grid that is 4 bytes per tile and
	// nothing for the collector to scan, however small the batch.
	start := make([]int32, ix.numTiles+1)
	total := 0
	count := func(tx, ty int) {
		if slot := ix.slotAt(tx, ty); slot >= 0 {
			start[slot]++
			total++
		}
	}
	for q := 0; q < s.n; q++ {
		s.cover(q, count)
	}
	slots := make([]int32, 0, min(total, ix.numTiles))
	end := int32(0)
	for slot := 0; slot < ix.numTiles; slot++ {
		if start[slot] > 0 {
			slots = append(slots, int32(slot))
		}
		end += start[slot]
		start[slot] = end
	}
	start[ix.numTiles] = end
	// Filling from the last query down turns each tile's end offset into
	// its start offset and leaves its subtasks in query order; tile
	// slot's subtasks are then subtasks[start[slot]:start[slot+1]].
	subtasks := make([]int32, total)
	var q int
	fill := func(tx, ty int) {
		if slot := ix.slotAt(tx, ty); slot >= 0 {
			start[slot]--
			subtasks[start[slot]] = int32(q)
		}
	}
	for q = s.n - 1; q >= 0; q-- {
		s.cover(q, fill)
	}

	// Step 2: process tile by tile; each worker owns whole tiles so the
	// tile's secondary partitions stay cache resident across subtasks. A
	// query's tiles spread over the workers, which add each subtask's
	// count to perTile.
	var perTile []atomic.Int64
	if s.counts != nil {
		perTile = make([]atomic.Int64, s.n)
	}
	workers := min(threads, len(slots))
	tallies := make([]workerTally, workers)
	var next atomic.Int64
	runWorkers(workers, func(w int) {
		for i := int(next.Add(1)) - 1; i < len(slots); i = int(next.Add(1)) - 1 {
			slot := slots[i]
			tx, ty := ix.g.TileCoords(int(ix.tileID(int(slot))))
			for _, q := range subtasks[start[slot]:start[slot+1]] {
				if n := s.onTile(int(q), slot, tx, ty, &tallies[w].Stats); n != 0 {
					perTile[q].Add(int64(n))
				}
			}
		}
	})
	for q := range perTile {
		s.counts[q] = int(perTile[q].Load())
	}
	ix.finishWorkers(sum, tallies)
}

// workerTally is one worker's Stats, padded so that no two workers'
// counters share a cache line: every worker writes its own per tile.
type workerTally struct {
	Stats
	_ [64]byte
}

// finishWorkers finishes a parallel run as one query: sum plus the
// workers' tallies.
func (ix *Index) finishWorkers(sum Stats, tallies []workerTally) {
	for w := range tallies {
		sum.Add(&tallies[w].Stats)
	}
	ix.finish(&sum)
}

// runWorkers runs fn(0..n-1) concurrently and waits for all of them; a
// single worker runs on the caller's goroutine.
func runWorkers(n int, fn func(w int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// windowCovers is the cover half of a window batchShape. It also
// returns where it records each query's cover origin, the (qx0, qy0)
// the per-tile kernels select classes against, so no subtask
// recomputes it. Only a tiles-based run calls cover, so for any other
// both are nil.
func (ix *Index) windowCovers(queries []geom.Rect, strategy BatchStrategy) (origin [][2]int, cover func(q int, visit func(tx, ty int))) {
	if strategy != TilesBased {
		return nil, nil
	}
	origin = make([][2]int, len(queries))
	return origin, func(q int, visit func(tx, ty int)) {
		if !queries[q].Valid() {
			return
		}
		x0, y0, x1, y1 := ix.g.CoverRect(queries[q])
		origin[q] = [2]int{x0, y0}
		for ty := y0; ty <= y1; ty++ {
			for tx := x0; tx <= x1; tx++ {
				visit(tx, ty)
			}
		}
	}
}

// BatchWindow evaluates a batch of window queries and streams results to
// fn, which receives the query index alongside each matching entry. Each
// (query, object) pair is delivered exactly once, with no duplicates.
// With threads > 1, fn is invoked concurrently and must be safe for
// concurrent use; with TilesBased this holds even for a single query
// index, because a query's tiles are processed by different workers.
// Unknown strategies fall back to QueriesBased; threads <= 0 selects
// DefaultThreads(). BatchDisk resolves both identically.
func (ix *Index) BatchWindow(queries []geom.Rect, strategy BatchStrategy, threads int, fn func(q int, e spatial.Entry)) {
	origin, cover := ix.windowCovers(queries, strategy)
	ix.runBatch(batchShape{
		n: len(queries),
		whole: func(q int, tally *Stats) int {
			stop := false
			ix.windowScan(queries[q], refiner{}, func(e spatial.Entry) { fn(q, e) }, &stop, tally)
			return 0
		},
		cover: cover,
		onTile: func(q int, slot int32, tx, ty int, tally *Stats) int {
			ix.windowOnTile(slot, tx, ty, origin[q][0], origin[q][1], queries[q], refiner{}, func(e spatial.Entry) { fn(q, e) }, tally)
			return 0
		},
	}, strategy, threads)
}

// BatchWindowCounts evaluates the batch and returns the result
// cardinality of every query, from the count pushdown: no per-result
// callback runs. The workers count their work like WindowCount does, so
// on a view the batch adds to the view's Stats what its queries counted,
// under either strategy and any thread count.
func (ix *Index) BatchWindowCounts(queries []geom.Rect, strategy BatchStrategy, threads int) []int {
	return ix.BatchWindowCountsFiltered(queries, func(int) float64 { return math.Inf(-1) }, strategy, threads)
}

// BatchWindowCountsFiltered is BatchWindowCounts counting, for query q,
// only the entries with Rect.MinX >= minX(q): WindowCountFiltered's
// rule, which the sharded engine applies per shard and query.
func (ix *Index) BatchWindowCountsFiltered(queries []geom.Rect, minX func(q int) float64, strategy BatchStrategy, threads int) []int {
	origin, cover := ix.windowCovers(queries, strategy)
	counts := make([]int, len(queries))
	ix.runBatch(batchShape{
		n:      len(queries),
		whole:  func(q int, tally *Stats) int { return ix.windowCount(queries[q], minX(q), tally) },
		cover:  cover,
		counts: counts,
		onTile: func(q int, slot int32, tx, ty int, tally *Stats) int {
			return ix.windowCountOnTile(slot, tx, ty, origin[q][0], origin[q][1], queries[q], minX(q), tally)
		},
	}, strategy, threads)
	return counts
}

// BatchDisk evaluates a batch of disk queries under the chosen strategy
// (Section VI applies to any range query; the tiles-based schedule
// computes each disk's tile cover once, for accumulation and evaluation
// alike). fn receives the query index with each result and must be
// concurrency-safe when threads != 1. Parameter handling matches
// BatchWindow exactly.
func (ix *Index) BatchDisk(queries []geom.Disk, strategy BatchStrategy, threads int, fn func(q int, e spatial.Entry)) {
	covers, cover := ix.diskCovers(queries, strategy)
	ix.runBatch(batchShape{
		n: len(queries),
		whole: func(q int, tally *Stats) int {
			stop := false
			s := diskShape(queries[q].Center, queries[q].Radius)
			ix.coverScan(&s, refiner{}, func(e spatial.Entry) { fn(q, e) }, &stop, tally)
			return 0
		},
		cover: cover,
		onTile: func(q int, slot int32, tx, ty int, tally *Stats) int {
			s := diskShape(queries[q].Center, queries[q].Radius)
			ix.coverOnTile(ix.tile(int(slot)), tx, ty, &covers[q], &s, refiner{}, func(e spatial.Entry) { fn(q, e) }, tally)
			return 0
		},
	}, strategy, threads)
}

// BatchDiskCounts evaluates the batch and returns per-query result
// counts from the disk count kernel, counting its work as
// BatchWindowCounts does.
func (ix *Index) BatchDiskCounts(queries []geom.Disk, strategy BatchStrategy, threads int) []int {
	return ix.BatchDiskCountsFiltered(queries, func(int) float64 { return math.Inf(-1) }, strategy, threads)
}

// BatchDiskCountsFiltered is BatchDiskCounts counting, for query q, only
// the entries with Rect.MinX >= minX(q): DiskCountFiltered's rule, which
// the sharded engine applies per shard and query.
func (ix *Index) BatchDiskCountsFiltered(queries []geom.Disk, minX func(q int) float64, strategy BatchStrategy, threads int) []int {
	covers, cover := ix.diskCovers(queries, strategy)
	counts := make([]int, len(queries))
	ix.runBatch(batchShape{
		n: len(queries),
		whole: func(q int, tally *Stats) int {
			s := diskShape(queries[q].Center, queries[q].Radius)
			return ix.coverCount(&s, minX(q), tally)
		},
		cover:  cover,
		counts: counts,
		onTile: func(q int, slot int32, tx, ty int, tally *Stats) int {
			s := diskShape(queries[q].Center, queries[q].Radius)
			return ix.coverCountOnTile(ix.tile(int(slot)), tx, ty, &covers[q], &s, minX(q), tally)
		},
	}, strategy, threads)
	return counts
}

// diskCovers is the cover half of a disk batchShape: each disk's tile
// cover is computed on first use and kept for the per-tile kernels.
// Only a tiles-based run calls cover, so for any other both are nil.
func (ix *Index) diskCovers(queries []geom.Disk, strategy BatchStrategy) (covers []cover, visitCover func(q int, visit func(tx, ty int))) {
	if strategy != TilesBased {
		return nil, nil
	}
	covers = make([]cover, len(queries))
	return covers, func(q int, visit func(tx, ty int)) {
		cv := &covers[q]
		if cv.below == nil {
			s := diskShape(queries[q].Center, queries[q].Radius)
			*cv = ix.coverOf(&s)
		}
		for ty := cv.y0; ty <= cv.y1; ty++ {
			for tx := cv.x0; tx <= cv.x1; tx++ {
				if cv.meets(tx, ty, ty) {
					visit(tx, ty)
				}
			}
		}
	}
}

// DefaultThreads is the worker count every "<= 0 selects the default"
// parameter resolves to (batch and join threads, BuildThreads, the shard
// count, the server's batch clamp): GOMAXPROCS, the number of goroutines
// that can actually run at once, which a CPU-limited deployment sets
// below the machine's core count.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }
