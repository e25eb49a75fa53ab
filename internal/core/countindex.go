package core

// Interior-mass acceleration for the count pushdown: the grid doubles as
// a 2D histogram of per-tile class-A counts, stored as inclusive prefix
// sums. Any tile strictly interior to a window's cover is (a) fully
// covered by the window, so its comparison plan is empty, and (b)
// neither in the cover's first row nor first column, so class selection
// reduces to class A alone (Lemmas 1-4). The whole strict interior is
// therefore one prefix-rectangle lookup — O(1) — and a count-only window
// query costs O(perimeter of the cover), not O(tiles covered).
//
// The table is one of the index's two derived read tables, with the
// 2-layer+ side table (decomposed.go), and follows their rule: Build,
// Load and BuildDecomposed make it, views and copy-on-write clones share
// it by pointer, and the first Insert or successful Delete drops it with
// a nil store into its own copy of the field, leaving the per-tile
// counting loop to answer.

// maxCountIndexTiles caps the grids that carry a prefix table: beyond
// this the table's memory (8 bytes per tile) stops being negligible next
// to the tile directory, and such grids are sparse-directory territory
// anyway.
const maxCountIndexTiles = 1 << 22

// countIndex holds inclusive 2D prefix sums over per-tile class-A
// counts: sums[(ty+1)*(nx+1)+tx+1] is the total class-A population of
// tiles [0..tx] x [0..ty].
type countIndex struct {
	nx   int
	sums []int64
}

// rect returns the class-A population of the inclusive tile rectangle
// [x0..x1] x [y0..y1]. The caller guarantees in-grid bounds and
// x0 <= x1, y0 <= y1.
func (ci *countIndex) rect(x0, y0, x1, y1 int) int64 {
	w := ci.nx + 1
	return ci.sums[(y1+1)*w+x1+1] - ci.sums[y0*w+x1+1] -
		ci.sums[(y1+1)*w+x0] + ci.sums[y0*w+x0]
}

// buildCountIndex (re)computes the prefix table, or clears it for grids
// past the size cap.
func (ix *Index) buildCountIndex() {
	nx, ny := ix.g.NX, ix.g.NY
	if nx*ny > maxCountIndexTiles {
		ix.counts = nil
		return
	}
	w := nx + 1
	sums := make([]int64, w*(ny+1))
	for slot := 0; slot < ix.numTiles; slot++ {
		tx, ty := ix.g.TileCoords(int(ix.tileID(slot)))
		sums[(ty+1)*w+tx+1] = int64(len(ix.tile(slot).classes[ClassA]))
	}
	for ty := 1; ty <= ny; ty++ {
		row, prev := sums[ty*w:(ty+1)*w], sums[(ty-1)*w:ty*w]
		run := int64(0)
		for tx := 1; tx <= nx; tx++ {
			run += row[tx]
			row[tx] = run + prev[tx]
		}
	}
	ix.counts = &countIndex{nx: nx, sums: sums}
}
