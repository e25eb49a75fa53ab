package core

import (
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// BatchDisk evaluates a batch of disk queries under the chosen strategy
// (Section VI applies to any range query; disks reuse the per-query tile
// cover between the accumulation and evaluation steps). fn receives the
// query index with each result and must be concurrency-safe when
// threads != 1. Parameter handling matches BatchWindow exactly: unknown
// strategies fall back to QueriesBased, threads <= 0 selects
// DefaultThreads().
func (ix *Index) BatchDisk(queries []geom.Disk, strategy BatchStrategy, threads int, fn func(q int, e spatial.Entry)) {
	strategy, threads = normalizeBatch(strategy, threads)
	if strategy == TilesBased {
		ix.batchDiskTilesBased(queries, threads, fn)
		return
	}
	ix.batchDiskQueriesBased(queries, threads, fn)
}

// BatchDiskCounts evaluates the batch and returns per-query result counts.
func (ix *Index) BatchDiskCounts(queries []geom.Disk, strategy BatchStrategy, threads int) []int {
	counts := make([]int64, len(queries))
	ix.BatchDisk(queries, strategy, threads, func(q int, _ spatial.Entry) {
		atomic.AddInt64(&counts[q], 1)
	})
	out := make([]int, len(queries))
	for i, c := range counts {
		out[i] = int(c)
	}
	return out
}

func (ix *Index) batchDiskQueriesBased(queries []geom.Disk, threads int, fn func(int, spatial.Entry)) {
	if threads == 1 {
		for q := range queries {
			ix.Disk(queries[q].Center, queries[q].Radius, func(e spatial.Entry) { fn(q, e) })
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < len(queries); q += threads {
				ix.Disk(queries[q].Center, queries[q].Radius, func(e spatial.Entry) { fn(q, e) })
			}
		}(w)
	}
	wg.Wait()
}

// diskSubtask is one (tile, query) unit of tiles-based disk processing.
type diskSubtask struct {
	slot    int32
	queries []int32
}

func (ix *Index) batchDiskTilesBased(queries []geom.Disk, threads int, fn func(int, spatial.Entry)) {
	// Step 1: compute each disk's tile cover once and accumulate
	// subtasks per tile; the covers are reused during evaluation.
	covers := make([]*diskCover, len(queries))
	perSlot := make([][]int32, ix.numTiles)
	for q := range queries {
		dc := ix.diskCoverFor(queries[q].Center, queries[q].Radius)
		covers[q] = dc
		if dc == nil {
			continue
		}
		for ty := dc.y0; ty <= dc.y1; ty++ {
			lo, hi := dc.rowMin[ty-dc.y0], dc.rowMax[ty-dc.y0]
			for tx := lo; tx <= hi; tx++ {
				if slot := ix.slotAt(tx, ty); slot >= 0 {
					perSlot[slot] = append(perSlot[slot], int32(q))
				}
			}
		}
	}
	tasks := make([]diskSubtask, 0, ix.numTiles)
	for slot, qs := range perSlot {
		if len(qs) > 0 {
			tasks = append(tasks, diskSubtask{slot: int32(slot), queries: qs})
		}
	}

	// Step 2: per tile, evaluate every subtask against that tile only.
	process := func(task diskSubtask) {
		t := ix.tile(int(task.slot))
		tx, ty := ix.g.TileCoords(int(ix.tileID(int(task.slot))))
		for _, q := range task.queries {
			disk := queries[q]
			qi := int(q)
			ix.diskOnTile(t, tx, ty, covers[q], disk.Center, disk.Radius,
				disk.Radius*disk.Radius, func(e spatial.Entry) { fn(qi, e) })
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
