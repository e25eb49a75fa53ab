package core

import (
	"math"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Disk and region range queries: Section IV-E of the paper, generalized
// beyond disks. A disk is a convex region, so both share one tile cover,
// one streamed walk, one count walk and one owner rule (owns), which
// holds for any cover, convex or not; only the per-entry test differs.

// Region is a query range of arbitrary shape. A query calls its methods
// only while it runs, and they must not keep their receiver: Search
// relies on it to leave a caller's query shapes on the caller's stack.
type Region interface {
	// MBR bounds the region; only tiles intersecting it are considered.
	MBR() geom.Rect
	// IntersectsRect reports whether the region and a rectangle share at
	// least one point. It is used both to build the tile cover and to
	// verify candidate MBRs.
	IntersectsRect(geom.Rect) bool
}

// RegionCoverer is optionally implemented by regions that can decide full
// containment of a rectangle; tiles fully inside the region then skip the
// per-entry verification (as the paper does for disks).
type RegionCoverer interface {
	ContainsRect(geom.Rect) bool
}

// shape is the range of a cover walk: a disk (region nil) or a Region.
type shape struct {
	mbr        geom.Rect
	center     geom.Point
	radius, r2 float64
	region     Region
	coverer    RegionCoverer // region's, when it implements it
}

func diskShape(center geom.Point, radius float64) shape {
	d := geom.Disk{Center: center, Radius: radius}
	return shape{mbr: d.MBR(), center: center, radius: radius, r2: radius * radius}
}

func regionShape(r Region) shape {
	c, _ := r.(RegionCoverer)
	return shape{mbr: r.MBR(), region: r, coverer: c}
}

// covers reports whether the shape contains the effective tile eff, so
// that every entry of the tile meets it. Border tiles reach to infinity
// and are never covered.
func (s *shape) covers(eff geom.Rect) bool {
	if s.region == nil {
		return eff.InsideDisk(s.center, s.radius)
	}
	return s.coverer != nil && eff.Finite() && s.coverer.ContainsRect(eff)
}

// cover is the set of tiles whose effective extent meets a shape, over
// the tile range [x0, x1] x [y0, y1] of the shape's MBR (grown by a
// sliver, see coverOf). below holds, for
// every row r in [0, y1-y0+1] and column i in [0, w), how many tiles of
// column x0+i in rows [y0, y0+r) are in the cover. Membership and "does
// any cover tile of column x lie in rows [a, b]" are then one subtraction
// each, whatever the shape.
type cover struct {
	x0, y0, x1, y1 int
	w              int
	below          []int32
}

// coverOf computes the tile cover of s clamped to the grid. It is built
// over the effective tile extents (border tiles extend to infinity), so
// shapes and objects sticking out of the indexed space are handled by
// the border tiles. A shape with an invalid MBR (a negative or NaN
// radius) has the empty cover.
func (ix *Index) coverOf(s *shape) cover {
	if !s.mbr.Valid() {
		return cover{x1: -1, y1: -1}
	}
	// The MBR and the tiles a region tests are grown by a sliver of a
	// tile, so that the rounding of a predicate or of a disk's MBR never
	// drops the tile where the shape touches an object on its edge. An
	// extra cover tile costs a visit, never a result: its entries are
	// tested one by one.
	pad := min(ix.g.CellW(), ix.g.CellH()) / 1024
	mbr := s.mbr.Expand(pad)
	x0, y0, x1, y1 := ix.g.CoverRect(mbr)
	w := x1 - x0 + 1
	cv := cover{x0: x0, y0: y0, x1: x1, y1: y1, w: w, below: make([]int32, w*(y1-y0+2))}
	meets := func(tx, ty int) bool {
		eff := ix.effectiveTile(tx, ty)
		if s.region == nil {
			return eff.DistSqToPoint(s.center) <= s.r2
		}
		// Clipped to the MBR, which holds the region: a border tile's
		// infinite extent defeats a polygon's edge and ray tests.
		r := eff.Expand(pad)
		r.MinX, r.MinY = max(r.MinX, mbr.MinX), max(r.MinY, mbr.MinY)
		r.MaxX, r.MaxY = min(r.MaxX, mbr.MaxX), min(r.MaxY, mbr.MaxY)
		return s.region.IntersectsRect(r)
	}
	for ty := y0; ty <= y1; ty++ {
		row := cv.below[(ty-y0+1)*w : (ty-y0+2)*w]
		copy(row, cv.below[(ty-y0)*w:])
		// Trim the row to its first and last cover tiles. A disk's cover
		// tiles of a row are one run (the tiles' distance to the center
		// falls, then rises), so only a region tests the tiles between.
		lo, hi := x0, x1
		for lo <= hi && !meets(lo, ty) {
			lo++
		}
		for hi > lo && !meets(hi, ty) {
			hi--
		}
		for tx := lo; tx <= hi; tx++ {
			if s.region == nil || tx == lo || tx == hi || meets(tx, ty) {
				row[tx-x0]++
			}
		}
	}
	return cv
}

// meets reports whether any cover tile of column tx lies in rows [a, b].
func (cv *cover) meets(tx, a, b int) bool {
	a, b = max(a, cv.y0), min(b, cv.y1)
	if tx < cv.x0 || tx > cv.x1 || a > b {
		return false
	}
	i := tx - cv.x0
	return cv.below[(b-cv.y0+1)*cv.w+i] != cv.below[(a-cv.y0)*cv.w+i]
}

// owns reports whether tile (tx, ty) reports entry r, of a class the
// tile scanned: the owner is the first cover column that meets r's
// replication block, and in it the first cover row within the block.
// left asks the column half (classes C and D begin left of the tile);
// up the row half (classes B and D begin above it), needed only when a
// cover tile lies above the tile in its column, which a convex cover
// never has once class B is scanned. Class A always owns its entries.
func (ix *Index) owns(r *geom.Rect, tx, ty int, cv *cover, left, up bool) bool {
	ax, ay, _, by := ix.g.CoverRect(*r)
	if left {
		for x := max(ax, cv.x0); x < tx; x++ {
			if cv.meets(x, ay, by) {
				return false // an earlier cover column meets the block
			}
		}
	}
	return !up || !cv.meets(tx, ay, ty-1)
}

// tileRules are the per-tile class selection of a cover walk at its tile
// (tx, ty): a class is skipped when the previous tile in the dimension
// it begins before is in the cover too (the analogue of Lemmas 1-2), and
// above says whether some cover tile lies above the tile in its column.
func (cv *cover) tileRules(tx, ty int) (hasLeft, hasUp, above bool) {
	i, k := tx-cv.x0, (ty-cv.y0)*cv.w+tx-cv.x0
	hasLeft = i > 0 && cv.below[k+cv.w-1] != cv.below[k-1]
	hasUp = k >= cv.w && cv.below[k] != cv.below[k-cv.w]
	return hasLeft, hasUp, cv.below[k] != 0
}

// skips reports whether class c is read from another tile of the cover.
func skips(c Class, hasLeft, hasUp bool) bool {
	return (hasUp && (c == ClassB || c == ClassD)) || (hasLeft && c >= ClassC)
}

// Disk runs the filtering step of a disk (distance) range query: fn is
// invoked exactly once for every entry whose MBR intersects the disk with
// the given center and radius. As with window queries, class selection
// avoids generating duplicates; the residual boundary-curvature cases the
// paper describes (its r1 example, where an object is scanned in class B
// of one tile and class C of another) are resolved by the owner rule.
func (ix *Index) Disk(center geom.Point, radius float64, fn func(e spatial.Entry)) {
	stop := false
	var tally Stats
	s := diskShape(center, radius)
	ix.coverScan(&s, refiner{}, fn, &stop, &tally)
	ix.finish(&tally)
}

// coverScan is the one streamed walk over a disk's or region's tile
// cover, behind Disk, Search and BatchDisk; rf, fn, stop and tally are
// windowScan's. Only a disk query can be exact.
func (ix *Index) coverScan(s *shape, rf refiner, fn func(spatial.Entry), stop *bool, tally *Stats) {
	cv := ix.coverOf(s)
	for ty := cv.y0; ty <= cv.y1 && !*stop; ty++ {
		for tx := cv.x0; tx <= cv.x1 && !*stop; tx++ {
			if !cv.meets(tx, ty, ty) {
				continue
			}
			if t := ix.tileAt(tx, ty); t != nil {
				ix.coverOnTile(t, tx, ty, &cv, s, rf, fn, tally)
			}
		}
	}
}

// coverOnTile evaluates the shape on one tile of its cover: the selected
// classes' entries that meet the shape (all of them on a covered tile)
// and that the tile owns go to fn, an exact query's rf consulted last.
func (ix *Index) coverOnTile(t *tile, tx, ty int, cv *cover, s *shape, rf refiner, fn func(spatial.Entry), tally *Stats) {
	hasLeft, hasUp, above := cv.tileRules(tx, ty)
	covered := s.covers(ix.effectiveTile(tx, ty))
	tally.TilesVisited++
	var lo int32 // where class c starts in the run
	for c := ClassA; c <= ClassD; c++ {
		entries := t.run[lo:t.end[c]]
		lo = t.end[c]
		if skips(c, hasLeft, hasUp) {
			tally.DuplicatesAvoided += int64(len(entries))
			continue
		}
		if len(entries) == 0 {
			continue
		}
		tally.PartitionsScanned++
		tally.EntriesScanned += int64(len(entries))
		tally.ClassScanned[c] += int64(len(entries))
		left, up := c >= ClassC, above && (c == ClassB || c == ClassD)
		for i := range entries {
			e := &entries[i]
			if !covered {
				if s.region == nil {
					tally.DistanceComputations++
					if e.Rect.DistSqToPoint(s.center) > s.r2 {
						continue
					}
				} else if !s.region.IntersectsRect(e.Rect) {
					continue
				}
			}
			if (left || up) && !ix.owns(&e.Rect, tx, ty, cv, left, up) {
				continue
			}
			tally.Results++
			if rf.exact && !ix.refineDisk(&rf, e, s.center, s.radius, s.r2, tally) {
				continue
			}
			fn(*e)
		}
	}
}

// DiskCount returns the number of MBRs intersecting the disk, through
// the closure-free count walk. Tiles fully inside the disk count class A
// in O(1) — the disk-query analogue of the window count pushdown;
// classes C and D still walk entries for the owner rule. Like
// WindowCount, it counts its own work, Stats attached or not.
func (ix *Index) DiskCount(center geom.Point, radius float64) int {
	return ix.DiskCountFiltered(center, radius, math.Inf(-1))
}

// DiskCountFiltered counts the disk's matches whose Rect.MinX >= minX:
// WindowCountFiltered's rule, with which the sharded engine pushes
// fan-out disk counts down. A minX of -Inf filters nothing.
func (ix *Index) DiskCountFiltered(center geom.Point, radius, minX float64) int {
	s := diskShape(center, radius)
	return ix.shapeCount(&s, minX)
}

// RegionCountFiltered is DiskCountFiltered for a Region, which it must
// not keep (Region's contract): SearchCount's region count, and the
// sharded engine's pushdown of fan-out region counts.
func (ix *Index) RegionCountFiltered(r Region, minX float64) int {
	s := regionShape(unleaked(&r))
	return ix.shapeCount(&s, minX)
}

// shapeCount runs the count walk as one count-kernel query.
func (ix *Index) shapeCount(s *shape, minX float64) int {
	tally := Stats{FastCounts: 1}
	n := ix.coverCount(s, minX, &tally)
	ix.finish(&tally)
	return n
}

// coverCount is the one counting walk over a disk's or region's tile
// cover, behind the count entry points and the queries-based batch.
func (ix *Index) coverCount(s *shape, minX float64, tally *Stats) int {
	cv := ix.coverOf(s)
	n := 0
	for ty := cv.y0; ty <= cv.y1; ty++ {
		for tx := cv.x0; tx <= cv.x1; tx++ {
			if !cv.meets(tx, ty, ty) {
				continue
			}
			if t := ix.tileAt(tx, ty); t != nil {
				n += ix.coverCountOnTile(t, tx, ty, &cv, s, minX, tally)
			}
		}
	}
	return n
}

// coverCountOnTile counts the shape's matches with Rect.MinX >= minX on
// one tile, with coverOnTile's class selection and owner rule. On a
// covered tile class A needs no test at all and begins inside the
// column, so unless minX could reject one of its entries
// (windowCountOnTile's ownColumn rule) it counts whole. Class B never
// does: a covered tile's upper neighbor shares an edge with it inside
// the shape, so it is in the cover too and class B is read there.
func (ix *Index) coverCountOnTile(t *tile, tx, ty int, cv *cover, s *shape, minX float64, tally *Stats) int {
	hasLeft, hasUp, above := cv.tileRules(tx, ty)
	covered := s.covers(ix.effectiveTile(tx, ty))
	bulk := covered && (math.IsInf(minX, -1) || (tx > 0 && ix.g.TileMin(tx, ty).X >= minX))
	tally.TilesVisited++
	if bulk {
		tally.FastTiles++
	}
	n := 0
	var lo int32 // where class c starts in the run
	for c := ClassA; c <= ClassD; c++ {
		entries := t.run[lo:t.end[c]]
		lo = t.end[c]
		left, up := c >= ClassC, above && (c == ClassB || c == ClassD)
		switch {
		case skips(c, hasLeft, hasUp):
			tally.DuplicatesAvoided += int64(len(entries))
		case bulk && c == ClassA:
			n += len(entries)
			tally.BulkEntries += int64(len(entries))
		default:
			n += ix.countShapeClass(entries, c, tx, ty, cv, s, minX, covered, left, up, tally)
		}
	}
	tally.Results += int64(n)
	return n
}

// countShapeClass counts the entries of one class with Rect.MinX >= minX
// that meet the shape (known for all on a covered tile) and that the
// tile owns (left, up: owns' halves to check).
func (ix *Index) countShapeClass(entries []spatial.Entry, c Class, tx, ty int, cv *cover, s *shape, minX float64, covered, left, up bool, tally *Stats) int {
	if len(entries) == 0 {
		return 0
	}
	tally.PartitionsScanned++
	tally.EntriesScanned += int64(len(entries))
	tally.ClassScanned[c] += int64(len(entries))
	n := 0
	if s.region == nil && !left && !up && math.IsInf(minX, -1) {
		// Not covered (a covered tile counts class A whole and never reads
		// class B), nothing to filter and nothing to own: a loop of its own
		// measured 15% faster on disk count batches.
		tally.DistanceComputations += int64(len(entries))
		for i := range entries {
			if entries[i].Rect.DistSqToPoint(s.center) <= s.r2 {
				n++
			}
		}
		return n
	}
	for i := range entries {
		e := &entries[i]
		if e.Rect.MinX < minX {
			continue
		}
		if !covered {
			if s.region == nil {
				tally.DistanceComputations++
				if e.Rect.DistSqToPoint(s.center) > s.r2 {
					continue
				}
			} else if !s.region.IntersectsRect(e.Rect) {
				continue
			}
		}
		if (left || up) && !ix.owns(&e.Rect, tx, ty, cv, left, up) {
			continue
		}
		n++
	}
	return n
}
