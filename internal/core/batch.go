package core

import (
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

// normalizeBatch resolves the parameter contract every batch entry point
// (BatchWindow, BatchDisk and their Counts forms) shares: any strategy
// other than TilesBased — including out-of-range values — falls back to
// the QueriesBased zero value, and threads <= 0 selects
// DefaultThreads(). Keeping this in one place guarantees the window and
// disk paths cannot drift apart again.
func normalizeBatch(strategy BatchStrategy, threads int) (BatchStrategy, int) {
	if strategy != TilesBased {
		strategy = QueriesBased
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	return strategy, threads
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
	strategy, threads = normalizeBatch(strategy, threads)
	if strategy == TilesBased {
		ix.batchTilesBased(queries, threads, fn)
		return
	}
	ix.batchQueriesBased(queries, threads, fn)
}

// BatchWindowCounts evaluates the batch and returns the result cardinality
// of every query. This is the form the batch experiments use.
func (ix *Index) BatchWindowCounts(queries []geom.Rect, strategy BatchStrategy, threads int) []int {
	counts := make([]int64, len(queries))
	ix.BatchWindow(queries, strategy, threads, func(q int, _ spatial.Entry) {
		atomic.AddInt64(&counts[q], 1)
	})
	out := make([]int, len(queries))
	for i, c := range counts {
		out[i] = int(c)
	}
	return out
}

func (ix *Index) batchQueriesBased(queries []geom.Rect, threads int, fn func(int, spatial.Entry)) {
	if threads == 1 {
		for q := range queries {
			ix.Window(queries[q], func(e spatial.Entry) { fn(q, e) })
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Round-robin assignment, as in the paper.
			for q := w; q < len(queries); q += threads {
				ix.Window(queries[q], func(e spatial.Entry) { fn(q, e) })
			}
		}(w)
	}
	wg.Wait()
}

// tileSubtasks is the per-tile accumulation of step one of tiles-based
// processing: the indices of all queries that intersect the tile.
type tileSubtasks struct {
	slot    int32
	queries []int32
}

func (ix *Index) batchTilesBased(queries []geom.Rect, threads int, fn func(int, spatial.Entry)) {
	// Step 1: accumulate subtasks per non-empty tile, with a counting
	// sweep first (the same two-pass idiom as the parallel build): the
	// per-slot buckets are carved exact-size out of one slab, so large
	// batches never pay append regrowth or per-bucket allocations.
	counts := make([]int32, ix.numTiles)
	total := 0
	for q := range queries {
		w := queries[q]
		if !w.Valid() {
			continue
		}
		qx0, qy0, qx1, qy1 := ix.g.CoverRect(w)
		for ty := qy0; ty <= qy1; ty++ {
			for tx := qx0; tx <= qx1; tx++ {
				if slot := ix.slotAt(tx, ty); slot >= 0 {
					counts[slot]++
					total++
				}
			}
		}
	}
	slab := make([]int32, total)
	perSlot := make([][]int32, ix.numTiles)
	numTasks, off := 0, 0
	for slot, ct := range counts {
		if ct > 0 {
			perSlot[slot] = slab[off : off : off+int(ct)]
			off += int(ct)
			numTasks++
		}
	}
	for q := range queries {
		w := queries[q]
		if !w.Valid() {
			continue
		}
		qx0, qy0, qx1, qy1 := ix.g.CoverRect(w)
		for ty := qy0; ty <= qy1; ty++ {
			for tx := qx0; tx <= qx1; tx++ {
				if slot := ix.slotAt(tx, ty); slot >= 0 {
					perSlot[slot] = append(perSlot[slot], int32(q))
				}
			}
		}
	}
	tasks := make([]tileSubtasks, 0, numTasks)
	for slot, qs := range perSlot {
		if len(qs) > 0 {
			tasks = append(tasks, tileSubtasks{slot: int32(slot), queries: qs})
		}
	}

	// Step 2: process tile by tile; each worker owns whole tiles so the
	// tile's secondary partitions stay cache resident across subtasks.
	process := func(task tileSubtasks) {
		t := ix.tile(int(task.slot))
		tx, ty := ix.g.TileCoords(int(ix.tileID(int(task.slot))))
		for _, q := range task.queries {
			w := queries[q]
			qx0, qy0, _, _ := ix.g.CoverRect(w)
			qi := int(q)
			ix.windowOnTile(t, tx, ty, qx0, qy0, w, func(e spatial.Entry) { fn(qi, e) })
		}
	}

	if threads == 1 {
		for _, task := range tasks {
			process(task)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(len(tasks)) {
					return
				}
				process(tasks[i])
			}
		}()
	}
	wg.Wait()
}

// DefaultThreads is the worker count every "<= 0 selects the default"
// parameter resolves to (batch and join threads, BuildThreads, the shard
// count, the server's batch clamp): GOMAXPROCS, the number of goroutines
// that can actually run at once, which a CPU-limited deployment sets
// below the machine's core count.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }
