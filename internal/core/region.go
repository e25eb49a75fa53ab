package core

import (
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements range queries with arbitrary (non-rectangular)
// query regions, generalizing Section IV-E of the paper beyond disks. The
// class-selection idea carries over — a class is skipped when the
// previous tile in the relevant dimension also intersects the region —
// but an arbitrary region's tile cover need not be convex, so the
// disk-specific ownership rule (which relies on contiguous row runs) is
// replaced by a general one driven by the cover's membership bitmap:
// an entry is reported in the first cover tile of its replication block
// in column-major order. Completeness and uniqueness hold for any cover.

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

// regionCover is the tile cover of an arbitrary region: a membership
// bitmap over the clamped cover range.
type regionCover struct {
	x0, y0, x1, y1 int
	w              int
	member         []bool
}

func (rc *regionCover) contains(tx, ty int) bool {
	if tx < rc.x0 || tx > rc.x1 || ty < rc.y0 || ty > rc.y1 {
		return false
	}
	return rc.member[(ty-rc.y0)*rc.w+(tx-rc.x0)]
}

// firstInColumn returns the smallest row in [yLo, yHi] for which column tx
// is in the cover, or -1.
func (rc *regionCover) firstInColumn(tx, yLo, yHi int) int {
	if tx < rc.x0 || tx > rc.x1 {
		return -1
	}
	if yLo < rc.y0 {
		yLo = rc.y0
	}
	if yHi > rc.y1 {
		yHi = rc.y1
	}
	for y := yLo; y <= yHi; y++ {
		if rc.member[(y-rc.y0)*rc.w+(tx-rc.x0)] {
			return y
		}
	}
	return -1
}

// regionScan is the one streamed walk over a region's tile cover, behind
// Search and SearchCount: fn is invoked exactly once for every entry
// whose MBR intersects the region, and tiles fully covered by the region
// (when it implements RegionCoverer) skip per-entry verification; fn and
// stop and tally are windowScan's.
func (ix *Index) regionScan(region Region, fn func(spatial.Entry), stop *bool, tally *Stats) {
	mbr := region.MBR()
	if !mbr.Valid() {
		return
	}
	x0, y0, x1, y1 := ix.g.CoverRect(mbr)
	rc := &regionCover{x0: x0, y0: y0, x1: x1, y1: y1, w: x1 - x0 + 1}
	rc.member = make([]bool, rc.w*(y1-y0+1))
	for ty := y0; ty <= y1; ty++ {
		for tx := x0; tx <= x1; tx++ {
			if region.IntersectsRect(ix.effectiveTile(tx, ty)) {
				rc.member[(ty-y0)*rc.w+(tx-x0)] = true
			}
		}
	}
	coverer, _ := region.(RegionCoverer)

	for ty := y0; ty <= y1 && !*stop; ty++ {
		for tx := x0; tx <= x1 && !*stop; tx++ {
			if !rc.contains(tx, ty) {
				continue
			}
			if t := ix.tileAt(tx, ty); t != nil {
				ix.regionOnTile(t, tx, ty, rc, region, coverer, fn, tally)
			}
		}
	}
}

func (ix *Index) regionOnTile(t *tile, tx, ty int, rc *regionCover, region Region, coverer RegionCoverer, fn func(spatial.Entry), tally *Stats) {
	hasLeft := rc.contains(tx-1, ty)
	hasUp := rc.contains(tx, ty-1)
	covered := coverer != nil && coverer.ContainsRect(ix.g.Tile(tx, ty)) &&
		tx > 0 && ty > 0 && tx < ix.g.NX-1 && ty < ix.g.NY-1
	tally.TilesVisited++

	emit := func(c Class, e *spatial.Entry) {
		if !covered && !region.IntersectsRect(e.Rect) {
			return
		}
		if c != ClassA && !ix.ownsRegionEntry(e.Rect, c, tx, ty, rc) {
			return
		}
		tally.Results++
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

// ownsRegionEntry reports whether (tx, ty) is the owner tile of entry r
// for this cover: the first cover tile of r's replication block in
// column-major order. Unlike the disk rule, it holds for arbitrary
// (non-convex) covers, at the price of a bitmap probe per earlier column
// and row.
func (ix *Index) ownsRegionEntry(r geom.Rect, c Class, tx, ty int, rc *regionCover) bool {
	ax, ay, _, by := ix.g.CoverRect(r)
	if ax < rc.x0 {
		ax = rc.x0
	}
	if c == ClassC || c == ClassD {
		for x := ax; x < tx; x++ {
			if rc.firstInColumn(x, ay, by) != -1 {
				return false // an earlier cover column meets the block
			}
		}
	}
	if c == ClassB || c == ClassD {
		// First cover row within the block in this column must be ty.
		if first := rc.firstInColumn(tx, ay, ty-1); first != -1 {
			return false
		}
	}
	return true
}
