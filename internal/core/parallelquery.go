package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Cost-gated intra-query parallelism. The paper observes (Section IV-D)
// that per-tile operations are fully independent; the Lemma 1-2 class
// selection is purely position-based, so disjoint runs of tile rows can
// be scanned by different workers with no synchronization and no
// duplicate results. The chunked kernel here buffers each chunk
// privately and merges in row order on the caller's goroutine, so the
// callback needs no synchronization and callers observe the exact
// sequential semantics, just faster. Because buffering and goroutine startup have
// real costs, the kernel only engages when a selectivity estimate says
// the query is large enough to pay for them; small queries keep the
// zero-overhead sequential path.

const (
	// parallelMinTiles is the smallest cover (in tiles) the chunked
	// kernel considers: below it, goroutine startup dominates.
	parallelMinTiles = 1024
	// parallelMinEstimate is the smallest EstimateWindow result that
	// justifies buffering results per chunk.
	parallelMinEstimate = 4096
	// parallelChunksPerWorker oversubscribes chunks to workers so one
	// dense chunk cannot leave the other workers idle.
	parallelChunksPerWorker = 4
)

// chunkBuf is a pooled per-chunk result buffer with a pre-bound append
// sink, so a chunk scan allocates nothing after pool warm-up.
type chunkBuf struct {
	entries []spatial.Entry
	emit    func(spatial.Entry)
}

var chunkBufPool = sync.Pool{New: func() any {
	c := &chunkBuf{}
	c.emit = func(e spatial.Entry) { c.entries = append(c.entries, e) }
	return c
}}

// autoWindowWorkers decides whether a window query over the given cover
// should take the chunked parallel kernel, and with how many workers.
// The gate is deliberately conservative: parallelism must be available
// (GOMAXPROCS), the cover must be large, the expected cardinality must
// pay for per-chunk buffering, and an early-stopping Limit below the
// estimate keeps the sequential path (which can actually stop early;
// parallel workers cannot).
func (ix *Index) autoWindowWorkers(ix0, iy0, ix1, iy1 int, w geom.Rect, limit int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		return 1
	}
	rows := iy1 - iy0 + 1
	if rows < 2 {
		return 1
	}
	if rows*(ix1-ix0+1) < parallelMinTiles {
		return 1
	}
	est := ix.EstimateWindow(w)
	if est < parallelMinEstimate {
		return 1
	}
	if limit > 0 && float64(limit) < est {
		return 1
	}
	if workers > rows {
		workers = rows
	}
	return workers
}

// windowChunked evaluates w with the cover's tile rows split into
// contiguous chunks fanned over a bounded worker pool. Each chunk scans
// its rows with the sequential per-tile kernel into a pooled private
// buffer; the caller's goroutine then merges the buffers in row order,
// so until sees entries in exactly the order the sequential scan would
// deliver them. until returning false stops delivery (the remaining
// buffered chunks are discarded); it reports whether delivery ran to
// completion. The global cover origin (qx0, qy0) is passed to every
// tile, so the duplicate-avoidance class selection is identical to the
// sequential scan and chunks stay disjoint.
//
// Stats-instrumented indices run each worker on a private stats view and
// merge the counters after the join; traced queries additionally record
// one ChunkSpan per chunk.
func (ix *Index) windowChunked(w geom.Rect, ix0, iy0, ix1, iy1, workers int, until func(spatial.Entry) bool) bool {
	rows := iy1 - iy0 + 1
	if workers > rows {
		workers = rows
	}
	nchunks := workers * parallelChunksPerWorker
	if nchunks > rows {
		nchunks = rows
	}
	type chunk struct {
		buf  *chunkBuf
		span ChunkSpan
	}
	chunks := make([]chunk, nchunks)
	traced := ix.trace != nil
	var workerStats []Stats
	if ix.Stats != nil {
		workerStats = make([]Stats, workers)
	}

	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			v := ix
			if workerStats != nil {
				v = ix.View(&workerStats[wk])
			}
			for {
				ci := int(next.Add(1))
				if ci >= nchunks {
					return
				}
				r0 := iy0 + ci*rows/nchunks
				r1 := iy0 + (ci+1)*rows/nchunks - 1
				var start time.Time
				if traced {
					start = time.Now()
				}
				buf := chunkBufPool.Get().(*chunkBuf)
				buf.entries = buf.entries[:0]
				for ty := r0; ty <= r1; ty++ {
					for tx := ix0; tx <= ix1; tx++ {
						t := v.tileAt(tx, ty)
						if t == nil {
							continue
						}
						v.windowOnTile(t, tx, ty, ix0, iy0, w, buf.emit)
					}
				}
				chunks[ci].buf = buf
				if traced {
					chunks[ci].span = ChunkSpan{
						Row0:      r0,
						Row1:      r1,
						ElapsedNS: time.Since(start).Nanoseconds(),
						Results:   len(buf.entries),
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	for i := range workerStats {
		ix.Stats.Add(&workerStats[i])
	}
	if traced {
		ix.trace.Parallel = true
		for i := range chunks {
			ix.trace.Chunks = append(ix.trace.Chunks, chunks[i].span)
		}
	}
	if ix.met != nil {
		ix.met.parallelQueries.Add(1)
		ix.met.parallelChunks.Add(int64(nchunks))
	}

	stopped := false
	for i := range chunks {
		buf := chunks[i].buf
		if buf == nil {
			continue
		}
		if !stopped {
			for j := range buf.entries {
				if !until(buf.entries[j]) {
					stopped = true
					break
				}
			}
		}
		buf.entries = buf.entries[:0]
		chunkBufPool.Put(buf)
	}
	return !stopped
}

// WindowOrdered evaluates one window query over the given number of
// workers, delivering results to fn on the caller's goroutine in exactly
// the sequential scan order: fn needs no synchronization and observes a
// deterministic order. workers <= 0 uses
// GOMAXPROCS; 1, or a cover too small to chunk, runs the plain
// sequential scan. This is the forced-parallelism entry point; Window
// and Search apply the same kernel automatically behind the cost gate.
func (ix *Index) WindowOrdered(w geom.Rect, workers int, fn func(e spatial.Entry)) {
	if !w.Valid() {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	if workers == 1 || iy1-iy0+1 < 2 {
		ix.windowSeq(w, ix0, iy0, ix1, iy1, fn)
		return
	}
	ix.windowChunked(w, ix0, iy0, ix1, iy1, workers, func(e spatial.Entry) bool {
		fn(e)
		return true
	})
}
