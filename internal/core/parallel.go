package core

import (
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements the parallel spatial join. The paper observes
// (Section IV-D) that "the operations at each tile are totally
// independent to each other and they can be parallelized without the
// need of any synchronization"; the common tiles of the two inputs are
// distributed over workers.

// JoinParallel runs the spatial join with common tiles distributed over
// threads. fn must be safe for concurrent invocation. threads <= 0 uses
// DefaultThreads().
func (ix *Index) JoinParallel(other *Index, threads int, fn func(r, s spatial.Entry)) {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads == 1 {
		ix.Join(other, fn)
		return
	}
	checkJoinable(ix, other)
	type task struct {
		tR, tS *tile
	}
	var tasks []task
	for slot := 0; slot < ix.numTiles; slot++ {
		tR := ix.tile(slot)
		tx, ty := ix.g.TileCoords(int(ix.tileID(slot)))
		if tS := other.tileAt(tx, ty); tS != nil {
			tasks = append(tasks, task{tR: tR, tS: tS})
		}
	}
	var next atomic.Int64
	runWorkers(threads, func(int) {
		for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
			joinTile(tasks[i].tR, tasks[i].tS, fn)
		}
	})
}
