package core

import (
	"time"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// RefineMode selects how the refinement step of an exact range query is
// evaluated (Section V of the paper).
type RefineMode int

const (
	// RefineSimple passes every candidate surviving the filtering step to
	// the exact geometry test.
	RefineSimple RefineMode = iota
	// RefineAvoid applies the Lemma 5 secondary filter first: a candidate
	// whose MBR has at least one side inside the query range is a
	// guaranteed result and skips refinement.
	RefineAvoid
	// RefineAvoidPlus additionally exploits the two-layer class knowledge
	// to drop comparisons from the secondary filter (end of Section V).
	// For disk queries it behaves like RefineAvoid, which is as far as
	// the paper takes it.
	RefineAvoidPlus
)

// String implements fmt.Stringer.
func (m RefineMode) String() string {
	switch m {
	case RefineSimple:
		return "Simple"
	case RefineAvoid:
		return "RefAvoid"
	case RefineAvoidPlus:
		return "RefAvoid+"
	}
	return "RefineMode(?)"
}

// WindowExact answers a window query over the exact object geometries:
// fn is called exactly once for each object whose geometry intersects w.
// The index must have been built over a dataset (Build).
func (ix *Index) WindowExact(w geom.Rect, mode RefineMode, fn func(id spatial.ID)) {
	if ix.dataset == nil {
		panic("core: WindowExact requires an index built over a Dataset")
	}
	ix.windowExactEntries(w, mode, func(e spatial.Entry) { fn(e.ID) })
}

// windowExactEntries is WindowExact delivering the full grid entry (ID
// plus MBR) per result — sharding needs the MBR to apply its ownership
// rule to refined results too. The caller must have checked ix.dataset.
func (ix *Index) windowExactEntries(w geom.Rect, mode RefineMode, fn func(e spatial.Entry)) {
	if !w.Valid() {
		return
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	for ty := iy0; ty <= iy1; ty++ {
		for tx := ix0; tx <= ix1; tx++ {
			t := ix.tileAt(tx, ty)
			if t == nil {
				continue
			}
			ix.windowExactOnTile(t, tx, ty, ix0, iy0, w, mode, fn)
		}
	}
}

// windowExactOnTile runs filtering plus refinement on one tile.
func (ix *Index) windowExactOnTile(t *tile, tx, ty, qx0, qy0 int, w geom.Rect, mode RefineMode, fn func(spatial.Entry)) {
	first := tx == qx0
	top := ty == qy0
	plan := ix.planFor(tx, ty, w)
	if ix.stats != nil {
		ix.stats.TilesVisited++
	}

	// Class knowledge for RefAvoid+ (Section V): when the window starts
	// before this tile in a dimension, every scanned class starts inside
	// the tile in that dimension, so the lower half of the coverage test
	// is already known to hold. Effective extents keep border tiles
	// conservative for out-of-space data.
	eff := ix.effectiveTile(tx, ty)
	knownXLow := w.MinX < eff.MinX // implies w.MinX <= r.MinX for classes A, B
	knownYLow := w.MinY < eff.MinY // implies w.MinY <= r.MinY for classes A, C

	var frac [4]float64
	if t.dec != nil {
		tMin := ix.g.TileMin(tx, ty)
		invW, invH := 1/ix.g.CellW(), 1/ix.g.CellH()
		frac[cmpXU] = (tMin.X + ix.g.CellW() - w.MinX) * invW
		frac[cmpXL] = (w.MaxX - tMin.X) * invW
		frac[cmpYU] = (tMin.Y + ix.g.CellH() - w.MinY) * invH
		frac[cmpYL] = (w.MaxY - tMin.Y) * invH
	}
	plans := classPlans(first, top, plan)
	for c := ClassA; c <= ClassD; c++ {
		if !plans[c].scan {
			continue
		}
		verify := ix.windowVerifier(c, w, mode, knownXLow, knownYLow, fn)
		if t.dec != nil {
			ix.decClassQuery(t, c, w, plans[c].plan, &frac, verify)
		} else {
			ix.scanClass(t.classes[c], w, plans[c].plan, verify)
		}
	}
}

// windowVerifier builds the per-candidate refinement callback for one
// class of one tile.
func (ix *Index) windowVerifier(c Class, w geom.Rect, mode RefineMode, knownXLow, knownYLow bool, fn func(spatial.Entry)) func(spatial.Entry) {
	s := ix.stats
	refine := func(e spatial.Entry) {
		if s != nil {
			s.RefinementTests++
		}
		if tr := ix.trace; tr != nil {
			// Traced path: attribute the exact geometry test's wall time to
			// the refinement stage.
			t0 := time.Now()
			hit := ix.dataset.Geom(e.ID).IntersectsRect(w)
			tr.RefineNS += time.Since(t0).Nanoseconds()
			if hit {
				fn(e)
			}
			return
		}
		if ix.dataset.Geom(e.ID).IntersectsRect(w) {
			fn(e)
		}
	}
	if mode == RefineSimple {
		return refine
	}
	// startsInsideX/Y: whether this class's entries begin inside the tile
	// in each dimension; classes that start before the tile can never be
	// covered by the window in that dimension when the class knowledge
	// applies (RefAvoid+ skips those comparisons entirely).
	startsInsideX := c == ClassA || c == ClassB
	startsInsideY := c == ClassA || c == ClassC
	plus := mode == RefineAvoidPlus
	return func(e spatial.Entry) {
		if s != nil {
			s.SecondaryFilterTests++
		}
		coveredX := false
		if !plus || startsInsideX {
			if plus && knownXLow && startsInsideX {
				coveredX = e.Rect.MaxX <= w.MaxX
			} else {
				coveredX = w.MinX <= e.Rect.MinX && e.Rect.MaxX <= w.MaxX
			}
		}
		coveredY := false
		if !coveredX {
			if !plus || startsInsideY {
				if plus && knownYLow && startsInsideY {
					coveredY = e.Rect.MaxY <= w.MaxY
				} else {
					coveredY = w.MinY <= e.Rect.MinY && e.Rect.MaxY <= w.MaxY
				}
			}
		}
		if coveredX || coveredY {
			// Lemma 5: one side of the MBR lies inside w, so the exact
			// geometry must intersect w.
			if s != nil {
				s.SecondaryFilterHits++
			}
			fn(e)
			return
		}
		refine(e)
	}
}

// DiskExact answers a disk query over the exact object geometries: fn is
// called exactly once for each object whose geometry comes within radius
// of center.
func (ix *Index) DiskExact(center geom.Point, radius float64, mode RefineMode, fn func(id spatial.ID)) {
	if ix.dataset == nil {
		panic("core: DiskExact requires an index built over a Dataset")
	}
	ix.diskExactEntries(center, radius, mode, func(e spatial.Entry) { fn(e.ID) })
}

// diskExactEntries is DiskExact delivering the full grid entry (ID plus
// MBR) per result, for the same reason as windowExactEntries. The caller
// must have checked ix.dataset.
func (ix *Index) diskExactEntries(center geom.Point, radius float64, mode RefineMode, fn func(e spatial.Entry)) {
	s := ix.stats
	r2 := radius * radius
	ix.Disk(center, radius, func(e spatial.Entry) {
		if mode != RefineSimple {
			// Lemma 5 for disks: if at least two corners of the MBR are
			// inside the disk, one full side of the MBR is inside it, so
			// the object is a guaranteed result.
			if s != nil {
				s.SecondaryFilterTests++
			}
			inside := 0
			for _, corner := range e.Rect.Corners() {
				if s != nil {
					s.DistanceComputations++
				}
				if corner.DistSq(center) <= r2 {
					inside++
					if inside == 2 {
						break
					}
				}
			}
			if inside >= 2 {
				if s != nil {
					s.SecondaryFilterHits++
				}
				fn(e)
				return
			}
		}
		if s != nil {
			s.RefinementTests++
		}
		if tr := ix.trace; tr != nil {
			t0 := time.Now()
			hit := ix.dataset.Geom(e.ID).IntersectsDisk(center, radius)
			tr.RefineNS += time.Since(t0).Nanoseconds()
			if hit {
				fn(e)
			}
			return
		}
		if ix.dataset.Geom(e.ID).IntersectsDisk(center, radius) {
			fn(e)
		}
	})
}
