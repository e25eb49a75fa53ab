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

// refiner is the refinement step of a range query as the per-tile bodies
// see it: a per-candidate test applied after the MBR filter and before
// the caller's callback. It is a plain value (the zero value refines
// nothing: a filtering query), never a closure around the callback, so
// the callback does not escape through it and an exact scan allocates
// nothing per class or tile. An exact refiner needs ix.dataset.
type refiner struct {
	exact bool
	mode  RefineMode
	// The rest is the class knowledge of a RefAvoid+ window query, set by
	// windowOnTile: the class being scanned, and whether the window starts
	// before the tile in x and in y (false in every other mode).
	class                Class
	knownXLow, knownYLow bool
}

// refineWindow reports whether candidate e, whose MBR intersects w, is a
// result of the exact window query, counting its tests into tally.
func (ix *Index) refineWindow(rf *refiner, e *spatial.Entry, w geom.Rect, tally *Stats) bool {
	if rf.mode != RefineSimple {
		tally.SecondaryFilterTests++
		// startsInsideX/Y: whether this class's entries begin inside the
		// tile in each dimension; classes that start before the tile can
		// never be covered by the window in that dimension when the class
		// knowledge applies (RefAvoid+ skips those comparisons entirely).
		plus := rf.mode == RefineAvoidPlus
		startsInsideX := rf.class == ClassA || rf.class == ClassB
		startsInsideY := rf.class == ClassA || rf.class == ClassC
		covered := false
		if !plus || startsInsideX {
			covered = (rf.knownXLow || w.MinX <= e.Rect.MinX) && e.Rect.MaxX <= w.MaxX
		}
		if !covered && (!plus || startsInsideY) {
			covered = (rf.knownYLow || w.MinY <= e.Rect.MinY) && e.Rect.MaxY <= w.MaxY
		}
		if covered {
			// Lemma 5: one side of the MBR lies inside w, so the exact
			// geometry must intersect w.
			tally.SecondaryFilterHits++
			return true
		}
	}
	tally.RefinementTests++
	tr := ix.trace
	if tr == nil {
		return ix.dataset.Geom(e.ID).IntersectsRect(w)
	}
	// Traced path: attribute the exact geometry test's wall time to the
	// refinement stage. Reading the clock is not free, so only a trace
	// pays for it.
	t0 := time.Now()
	hit := ix.dataset.Geom(e.ID).IntersectsRect(w)
	tr.RefineNS += time.Since(t0).Nanoseconds()
	return hit
}

// refineDisk reports whether candidate e, whose MBR intersects the disk,
// is a result of the exact disk query, counting its tests into tally.
func (ix *Index) refineDisk(rf *refiner, e *spatial.Entry, center geom.Point, radius, r2 float64, tally *Stats) bool {
	if rf.mode != RefineSimple {
		// Lemma 5 for disks: if at least two corners of the MBR are inside
		// the disk, one full side of the MBR is inside it, so the object is
		// a guaranteed result.
		tally.SecondaryFilterTests++
		inside := 0
		for _, corner := range e.Rect.Corners() {
			tally.DistanceComputations++
			if corner.DistSq(center) <= r2 {
				if inside++; inside == 2 {
					tally.SecondaryFilterHits++
					return true
				}
			}
		}
	}
	tally.RefinementTests++
	tr := ix.trace
	if tr == nil {
		return ix.dataset.Geom(e.ID).IntersectsDisk(center, radius)
	}
	t0 := time.Now()
	hit := ix.dataset.Geom(e.ID).IntersectsDisk(center, radius)
	tr.RefineNS += time.Since(t0).Nanoseconds()
	return hit
}
