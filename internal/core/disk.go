package core

import (
	"math"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// diskCover describes the set of tiles intersecting a disk. Because a
// disk is convex, the intersecting tiles of each row form one contiguous
// run, and likewise for each column; the four slices record those runs,
// indexed relative to (x0, y0).
type diskCover struct {
	x0, y0, x1, y1 int   // tile coordinate bounds of the cover
	rowMin, rowMax []int // per row (iy-y0): run of intersecting columns
	colMin, colMax []int // per column (ix-x0): run of intersecting rows
}

// contains reports whether tile (tx, ty) intersects the disk.
func (dc *diskCover) contains(tx, ty int) bool {
	if ty < dc.y0 || ty > dc.y1 || tx < dc.x0 || tx > dc.x1 {
		return false
	}
	return tx >= dc.rowMin[ty-dc.y0] && tx <= dc.rowMax[ty-dc.y0]
}

// diskCoverFor computes the tile cover of a disk clamped to the grid. The
// cover is built over the effective tile extents (border tiles extend to
// infinity), so disks and objects sticking out of the indexed space are
// handled by the border tiles. It returns nil for a negative radius.
func (ix *Index) diskCoverFor(center geom.Point, radius float64) *diskCover {
	if radius < 0 {
		return nil
	}
	mbr := geom.Disk{Center: center, Radius: radius}.MBR()
	x0, y0, x1, y1 := ix.g.CoverRect(mbr)
	dc := &diskCover{
		x0: x0, y0: y0, x1: x1, y1: y1,
		rowMin: make([]int, y1-y0+1),
		rowMax: make([]int, y1-y0+1),
		colMin: make([]int, x1-x0+1),
		colMax: make([]int, x1-x0+1),
	}
	for i := range dc.colMin {
		dc.colMin[i] = -1
	}
	for ty := y0; ty <= y1; ty++ {
		lo, hi := -1, -1
		for tx := x0; tx <= x1; tx++ {
			if ix.effectiveTile(tx, ty).IntersectsDisk(center, radius) {
				if lo == -1 {
					lo = tx
				}
				hi = tx
			} else if lo != -1 {
				break // runs are contiguous; past the end of this row's run
			}
		}
		if lo == -1 {
			// Possible only when the clamped cover includes rows whose
			// effective tiles the disk misses. Mark the row empty.
			lo, hi = 1, 0
		}
		dc.rowMin[ty-y0], dc.rowMax[ty-y0] = lo, hi
		for tx := lo; tx <= hi; tx++ {
			if dc.colMin[tx-x0] == -1 {
				dc.colMin[tx-x0] = ty
			}
			dc.colMax[tx-x0] = ty
		}
	}
	return dc
}

// Disk runs the filtering step of a disk (distance) range query: fn is
// invoked exactly once for every entry whose MBR intersects the disk with
// the given center and radius. As with window queries, class selection
// avoids generating duplicates; the residual boundary-curvature cases the
// paper describes (its r1 example, where an object is scanned in class B
// of one tile and class C of another) are resolved by a deterministic
// owner rule over the disk's tile cover.
func (ix *Index) Disk(center geom.Point, radius float64, fn func(e spatial.Entry)) {
	stop := false
	var tally Stats
	ix.diskScan(center, radius, refiner{}, fn, &stop, &tally)
	ix.finish(&tally)
}

// diskScan is the one streamed walk over a disk's tile cover, behind
// Disk and Search; rf, fn, stop and tally are windowScan's.
func (ix *Index) diskScan(center geom.Point, radius float64, rf refiner, fn func(spatial.Entry), stop *bool, tally *Stats) {
	dc := ix.diskCoverFor(center, radius)
	if dc == nil {
		return
	}
	r2 := radius * radius
	for ty := dc.y0; ty <= dc.y1 && !*stop; ty++ {
		lo, hi := dc.rowMin[ty-dc.y0], dc.rowMax[ty-dc.y0]
		for tx := lo; tx <= hi && !*stop; tx++ {
			if t := ix.tileAt(tx, ty); t != nil {
				ix.diskOnTile(t, tx, ty, dc, center, radius, r2, rf, fn, tally)
			}
		}
	}
}

// DiskCount returns the number of MBRs intersecting the disk, through a
// dedicated closure-free counting loop. Tiles fully inside the disk
// count their duplicate-free classes (A, and B when no scanned upper
// neighbor) in O(1) — the disk-query analogue of the window count
// pushdown; classes C and D still walk entries for the ownership test.
// Like WindowCount, it counts its own work, Stats attached or not.
func (ix *Index) DiskCount(center geom.Point, radius float64) int {
	return ix.DiskCountFiltered(center, radius, math.Inf(-1))
}

// DiskCountFiltered counts the disk's matches whose Rect.MinX >= minX:
// WindowCountFiltered's rule, with which the sharded engine pushes
// fan-out disk counts down. A minX of -Inf filters nothing.
func (ix *Index) DiskCountFiltered(center geom.Point, radius, minX float64) int {
	tally := Stats{FastCounts: 1}
	n := ix.diskCount(center, radius, minX, &tally)
	ix.finish(&tally)
	return n
}

// diskCount is the one counting walk over a disk's tile cover, behind
// both entries and the queries-based batch.
func (ix *Index) diskCount(center geom.Point, radius, minX float64, tally *Stats) int {
	dc := ix.diskCoverFor(center, radius)
	if dc == nil {
		return 0
	}
	r2 := radius * radius
	n := 0
	for ty := dc.y0; ty <= dc.y1; ty++ {
		lo, hi := dc.rowMin[ty-dc.y0], dc.rowMax[ty-dc.y0]
		for tx := lo; tx <= hi; tx++ {
			if t := ix.tileAt(tx, ty); t != nil {
				n += ix.diskCountOnTile(t, tx, ty, dc, center, radius, r2, minX, tally)
			}
		}
	}
	return n
}

// diskCountOnTile counts the disk's matches with Rect.MinX >= minX on
// one tile, with diskOnTile's class selection and ownership rule. On a
// tile inside the disk, classes A and B need no distance or ownership
// test and begin inside the column, so unless minX could reject one of
// their entries (windowCountOnTile's ownColumn rule) they count whole.
func (ix *Index) diskCountOnTile(t *tile, tx, ty int, dc *diskCover, center geom.Point, radius, r2, minX float64, tally *Stats) int {
	hasLeft := dc.contains(tx-1, ty)
	hasUp := dc.contains(tx, ty-1)
	covered := ix.effectiveTile(tx, ty).InsideDisk(center, radius)
	bulk := covered && (math.IsInf(minX, -1) || (tx > 0 && ix.g.TileMin(tx, ty).X >= minX))
	tally.TilesVisited++
	if bulk {
		tally.FastTiles++
	}
	n := 0
	for c := ClassA; c <= ClassD; c++ {
		entries := t.classes[c]
		switch {
		case (hasUp && (c == ClassB || c == ClassD)) || (hasLeft && c >= ClassC):
			tally.DuplicatesAvoided += int64(len(entries))
		case bulk && c <= ClassB:
			n += len(entries)
			tally.BulkEntries += int64(len(entries))
		default:
			n += ix.countDiskClass(entries, c, tx, ty, dc, center, r2, minX, covered, tally)
		}
	}
	tally.Results += int64(n)
	return n
}

// countDiskClass counts the entries of one class with Rect.MinX >= minX
// that lie within distance of the disk center (known for all on a
// covered tile) and, in classes C and D, that this tile owns
// (diskOnTile's residual duplicate guard).
func (ix *Index) countDiskClass(entries []spatial.Entry, c Class, tx, ty int, dc *diskCover, center geom.Point, r2, minX float64, covered bool, tally *Stats) int {
	if len(entries) == 0 {
		return 0
	}
	tally.PartitionsScanned++
	tally.EntriesScanned += int64(len(entries))
	tally.ClassScanned[c] += int64(len(entries))
	if !covered {
		tally.DistanceComputations += int64(len(entries))
	}
	n := 0
	if c <= ClassB && math.IsInf(minX, -1) {
		// Not covered (covered tiles count these whole), nothing to filter:
		// a loop of its own measured 15% faster on disk count batches.
		for i := range entries {
			if entries[i].Rect.DistSqToPoint(center) <= r2 {
				n++
			}
		}
		return n
	}
	for i := range entries {
		e := &entries[i]
		if e.Rect.MinX < minX {
			if !covered {
				tally.DistanceComputations--
			}
			continue
		}
		if !covered && e.Rect.DistSqToPoint(center) > r2 {
			continue
		}
		if c >= ClassC && !ix.ownsDiskEntry(e.Rect, tx, ty, dc) {
			continue
		}
		n++
	}
	return n
}

// diskOnTile evaluates the disk on one tile. Classes whose entries are
// also assigned to an in-cover previous tile are skipped (the disk-query
// analogue of Lemmas 1-2); tiles fully inside the disk report without
// distance verification. An exact query's rf is consulted last.
func (ix *Index) diskOnTile(t *tile, tx, ty int, dc *diskCover, center geom.Point, radius, r2 float64, rf refiner, fn func(spatial.Entry), tally *Stats) {
	hasLeft := dc.contains(tx-1, ty)
	hasUp := dc.contains(tx, ty-1)
	covered := ix.effectiveTile(tx, ty).InsideDisk(center, radius)

	tally.TilesVisited++
	if hasLeft {
		tally.DuplicatesAvoided += int64(len(t.classes[ClassC]))
	}
	if hasUp {
		tally.DuplicatesAvoided += int64(len(t.classes[ClassB]))
	}
	if hasLeft || hasUp {
		tally.DuplicatesAvoided += int64(len(t.classes[ClassD]))
	}

	emit := func(c Class, e *spatial.Entry) {
		if !covered {
			tally.DistanceComputations++
			if e.Rect.DistSqToPoint(center) > r2 {
				return
			}
		}
		if c == ClassC || c == ClassD {
			// Residual duplicate guard: entries starting before the tile
			// in x may be scanned in several tiles along the cover's
			// curved boundary; report only in the owner tile.
			if !ix.ownsDiskEntry(e.Rect, tx, ty, dc) {
				return
			}
		}
		tally.Results++
		if rf.exact && !ix.refineDisk(&rf, e, center, radius, r2, tally) {
			return
		}
		fn(*e)
	}

	scan := func(c Class) {
		entries := t.classes[c]
		if len(entries) > 0 {
			tally.PartitionsScanned++
			tally.EntriesScanned += int64(len(entries))
			tally.ClassScanned[c] += int64(len(entries))
		}
		for i := range entries {
			emit(c, &entries[i])
		}
	}

	scan(ClassA)
	if !hasUp {
		scan(ClassB)
	}
	if !hasLeft {
		scan(ClassC)
	}
	if !hasUp && !hasLeft {
		scan(ClassD)
	}
}

// ownsDiskEntry decides whether tile (tx, ty) is the owner of entry r for
// this disk query. The owner is the scanned tile in the first column of
// the cover that meets the entry's replication block; by construction the
// skip rules leave exactly one scanned tile per column, so checking that
// no earlier column of the cover intersects the block's row range makes
// the owner unique. Entries in classes A and B automatically own their
// tile (class A exists once; class B lives in the block's first column),
// so only classes C and D are tested.
func (ix *Index) ownsDiskEntry(r geom.Rect, tx, ty int, dc *diskCover) bool {
	ax, ay, _, by := ix.g.CoverRect(r)
	if ax < dc.x0 {
		ax = dc.x0
	}
	for x := ax; x < tx; x++ {
		cm := dc.colMin[x-dc.x0]
		if cm == -1 {
			continue
		}
		if cm <= by && dc.colMax[x-dc.x0] >= ay {
			return false // an earlier cover column meets the block
		}
	}
	// This is the first cover column meeting the block; the scanned tile
	// in this column within the block is unique, so (tx, ty) owns r.
	return true
}
