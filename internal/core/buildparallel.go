package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements the parallel construction pipeline selected by
// Options.BuildThreads: a two-pass counting build that produces tile runs
// byte-identical in content to the sequential insert loop.
//
// Pass 1 shards the entries across workers; each worker classifies every
// replica of its shard and counts per (tile, class) with atomic adds into
// one flat count array. A sequential merge sweep then allocates the tile
// directory and carves each tile's exact-size run out of a single entry slab
// (no append regrowth anywhere), and splits the tile-ID space into ranges
// carrying roughly equal placement counts. Pass 2 assigns each range to
// one worker, which scans the whole entry list in dataset order and
// writes only the placements that fall into its range. Every (tile,
// class) slice therefore has exactly one writer filling it in dataset
// order — the same order the sequential loop appends in — so the two
// paths produce identical partition contents (only the slot order of the
// tile pool differs: parallel builds lay tiles out in ascending tile-ID
// order, which the directory makes invisible to every reader).

// Parallel-build gates. Declared as variables so tests can force the
// parallel path onto tiny inputs; production code treats them as
// constants.
var (
	// minParallelBuildEntries is the dataset size below which the
	// sequential loop wins (goroutine + counting overhead dominates).
	minParallelBuildEntries = 32 << 10
	// minParallelBuildShard caps the worker count so every shard keeps a
	// meaningful amount of work.
	minParallelBuildShard = 8 << 10
	// maxParallelBuildTiles bounds the flat count array (16 bytes per
	// tile): grids beyond it fall back to the sequential path rather
	// than allocate an oversized transient.
	maxParallelBuildTiles = 1 << 24
	// minParallelDecTiles is the tile-pool size below which the
	// decomposed tables are built sequentially.
	minParallelDecTiles = 1 << 10
)

// resolveBuildThreads maps the Options.BuildThreads convention onto a
// concrete worker count: <= 0 selects DefaultThreads(), 1 forces the
// sequential path, anything else is taken as given.
func resolveBuildThreads(requested int) int {
	if requested <= 0 {
		return DefaultThreads()
	}
	return requested
}

// bulkLoad fills a fresh index with the dataset's entries, choosing
// between the sequential insert loop and the two-pass parallel pipeline
// per Options.BuildThreads and the workload gates above.
func (ix *Index) bulkLoad(entries []spatial.Entry) {
	threads := resolveBuildThreads(ix.opts.BuildThreads)
	if threads > 1 &&
		len(entries) >= minParallelBuildEntries &&
		ix.g.NumTiles() <= maxParallelBuildTiles {
		if cap := len(entries) / minParallelBuildShard; threads > cap {
			threads = cap
		}
		if threads > 1 && ix.buildParallel(entries, threads) {
			return
		}
	}
	for i := range entries {
		ix.insert(entries[i])
	}
}

// buildParallel runs the two-pass counting build with the given worker
// count. It requires a freshly constructed (empty) index and reports
// whether it ran; on false the caller falls back to sequential inserts.
func (ix *Index) buildParallel(entries []spatial.Entry, threads int) bool {
	if ix.numTiles != 0 || ix.size != 0 || ix.epoch != 0 {
		return false
	}
	numTiles := ix.g.NumTiles()
	nx := ix.g.NX

	// Pass 1: count replicas per (tile, class). Workers own contiguous
	// entry shards; counts land in one shared flat array via atomic adds
	// (spread over 4*numTiles addresses, so contention is negligible).
	// Each worker also takes the union of its shard's MBRs (the extent).
	counts := make([]int32, 4*numTiles)
	extents := make([]geom.Rect, threads)
	firstInvalid := int64(math.MaxInt64)
	var invalid atomic.Int64
	invalid.Store(firstInvalid)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		lo := len(entries) * w / threads
		hi := len(entries) * (w + 1) / threads
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ext := noExtent
			for i := lo; i < hi; i++ {
				e := &entries[i]
				if !e.Rect.Valid() || !e.Rect.Finite() {
					for {
						cur := invalid.Load()
						if int64(i) >= cur || invalid.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				ext = ext.Union(e.Rect)
				ax, ay, bx, by := ix.g.CoverRect(e.Rect)
				for ty := ay; ty <= by; ty++ {
					row := ty * nx
					for tx := ax; tx <= bx; tx++ {
						c := classify(tx, ty, ax, ay)
						atomic.AddInt32(&counts[(row+tx)*4+int(c)], 1)
					}
				}
			}
			extents[w] = ext
		}(w, lo, hi)
	}
	wg.Wait()
	if bad := invalid.Load(); bad != int64(math.MaxInt64) {
		// Same failure mode as the sequential insert loop, deterministic:
		// the lowest-index offender is reported.
		e := &entries[bad]
		panic(fmt.Sprintf("core: inserting invalid rect %v (id %d)", e.Rect, e.ID))
	}

	// Merge: size the tile pool and the entry slab from the counts.
	occupied, total := 0, 0
	for id := 0; id < numTiles; id++ {
		base := id * 4
		ct := int(counts[base]) + int(counts[base+1]) + int(counts[base+2]) + int(counts[base+3])
		if ct > 0 {
			occupied++
			total += ct
		}
	}
	if total > math.MaxInt32 {
		return false // int32 fill cursors would overflow; unreachable in-memory
	}
	// The tile table is built in place: all pages are carved from one
	// slab, exactly as the entry storage below is.
	ix.pages = appendTilePages(nil, (occupied+tilePageMask)>>tilePageShift, ix.epoch)
	slab := make([]spatial.Entry, total)
	fill := make([]int32, 4*occupied) // per (slot, class) write cursor into slab

	// One sweep assigns slots in ascending tile-ID order, carves the
	// exact-size runs (cap pinned to len, so a later Insert reallocates
	// instead of clobbering a neighbor's slab region) with their class
	// bounds and write cursors, and splits the ID space into ranges of
	// roughly equal placement mass for pass 2.
	target := (total + threads - 1) / threads
	bounds := make([]int, 1, threads+1) // bounds[0] = 0
	acc := 0
	off := 0
	for id := 0; id < numTiles; id++ {
		base := id * 4
		ct := int(counts[base]) + int(counts[base+1]) + int(counts[base+2]) + int(counts[base+3])
		if ct == 0 {
			continue
		}
		slot := ix.appendTile(int32(id))
		ix.setSlot(int32(id), slot)
		t := ix.tile(int(slot))
		t.run = slab[off : off+ct : off+ct]
		start := off
		for c := 0; c < 4; c++ {
			fill[int(slot)*4+c] = int32(off)
			off += int(counts[base+c])
			t.end[c] = int32(off - start)
		}
		acc += ct
		if acc >= target && len(bounds) < threads {
			bounds = append(bounds, id+1)
			acc = 0
		}
	}
	bounds = append(bounds, numTiles)

	// Pass 2: fill. Each worker owns a contiguous tile-ID range and
	// scans the full entry list in order, writing only the placements
	// that fall into its range — one writer per (tile, class), dataset
	// order preserved.
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := range entries {
				e := &entries[i]
				ax, ay, bx, by := ix.g.CoverRect(e.Rect)
				if by*nx+bx < lo || ay*nx+ax >= hi {
					continue
				}
				for ty := ay; ty <= by; ty++ {
					row := ty * nx
					txs, txe := ax, bx
					if row+txe < lo || row+txs >= hi {
						continue
					}
					if row+txs < lo {
						txs = lo - row
					}
					if row+txe >= hi {
						txe = hi - 1 - row
					}
					for tx := txs; tx <= txe; tx++ {
						slot := int(ix.slotOf(int32(row + tx)))
						c := classify(tx, ty, ax, ay)
						k := slot*4 + int(c)
						slab[fill[k]] = *e
						fill[k]++
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	ix.size = len(entries)
	for _, ext := range extents {
		ix.extent = ix.extent.Union(ext)
	}
	return true
}
