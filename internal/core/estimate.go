package core

import "github.com/twolayer/twolayer/internal/geom"

// Selectivity estimation: the grid doubles as an equi-width histogram, a
// standard database component. EstimateWindow predicts a window query's
// result cardinality from per-tile class-A counts (each object counted
// once) under a uniformity assumption inside each tile, without touching
// any entry.

// EstimateWindow returns an estimate of the number of objects whose MBR
// intersects w, in O(tiles covered) time. Exact for empty regions;
// within a tile the object mass is assumed uniform. Objects larger than
// a tile contribute through their class-A tile only, so the estimate
// skews low for heavily replicated data — it is a lower-bound-flavoured
// planning signal, not a count.
func (ix *Index) EstimateWindow(w geom.Rect) float64 {
	if !w.Valid() {
		return 0
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	est := 0.0
	for ty := iy0; ty <= iy1; ty++ {
		for tx := ix0; tx <= ix1; tx++ {
			t := ix.tileAt(tx, ty)
			if t == nil {
				continue
			}
			n := t.size()
			if n == 0 {
				continue
			}
			// Nominal tile extents: an estimator should track the common
			// case (data inside the space); out-of-space mass clamped
			// into border tiles is simply not modeled.
			tileRect := ix.g.Tile(tx, ty)
			overlap := tileRect.Intersection(w)
			if !overlap.Valid() {
				continue
			}
			fracArea := 1.0
			if a := tileRect.Area(); a > 0 {
				fracArea = overlap.Area() / a
			}
			// Count each object once: replicas (classes B, C, D) are
			// owned by another tile's class A.
			est += float64(len(t.classes[ClassA])) * fracArea
		}
	}
	return est
}
