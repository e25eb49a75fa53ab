package core

import (
	"math"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Window runs the filtering step of a window query: fn is invoked exactly
// once for every entry whose MBR intersects w. No duplicates are ever
// produced, so no result deduplication happens anywhere (Algorithm 1 of
// the paper).
func (ix *Index) Window(w geom.Rect, fn func(e spatial.Entry)) {
	stop := false
	var tally Stats
	ix.windowScan(w, refiner{}, fn, &stop, &tally)
	ix.finish(&tally)
}

// windowScan is the one streamed walk over a window's tile cover, behind
// Window and Search: every non-empty tile of the cover goes through
// windowOnTile until *stop, which fn may set, is seen. It is checked per
// tile: the tile being scanned when fn sets it is scanned to its end, and
// fn drops what that yields if it must. The walk counts its work into
// tally, which the entry point finishes.
//
// fn is only ever called, never stored or wrapped, here and in everything
// below (windowOnTile, scanClass, decClassQuery): that is what lets a
// caller's capturing callback stay on its stack. Refinement is therefore
// a test the per-tile body applies before fn (refiner), not a closure
// around it.
func (ix *Index) windowScan(w geom.Rect, rf refiner, fn func(spatial.Entry), stop *bool, tally *Stats) {
	if !w.Valid() {
		return
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	for ty := iy0; ty <= iy1 && !*stop; ty++ {
		for tx := ix0; tx <= ix1 && !*stop; tx++ {
			if slot := ix.slotAt(tx, ty); slot >= 0 {
				ix.windowOnTile(slot, tx, ty, ix0, iy0, w, rf, fn, tally)
			}
		}
	}
}

// tileComparisonPlan captures which coordinate comparisons the entries of
// one tile need against the query window (Section IV-B). A false flag
// means the corresponding comparison is implied by the tile's position
// relative to the window and can be skipped for every rectangle.
type tileComparisonPlan struct {
	needXL bool // test r.MinX <= w.MaxX (window ends inside the tile)
	needXU bool // test r.MaxX >= w.MinX (window starts inside the tile)
	needYL bool // test r.MinY <= w.MaxY
	needYU bool // test r.MaxY >= w.MinY
}

// planFor computes the comparison plan of tile (tx,ty) against w. The
// conditions are coordinate-based, so tiles strictly interior to the
// window get the empty plan. The plan is computed against the tile's
// effective extent (border tiles extend to infinity, because objects and
// queries sticking out of the indexed space are clamped into them), so
// out-of-space data stays correct.
func (ix *Index) planFor(tx, ty int, w geom.Rect) tileComparisonPlan {
	t := ix.effectiveTile(tx, ty)
	return tileComparisonPlan{
		needXL: w.MaxX < t.MaxX,
		needXU: w.MinX > t.MinX,
		needYL: w.MaxY < t.MaxY,
		needYU: w.MinY > t.MinY,
	}
}

// effectiveTile returns the extent of tile (tx,ty), with border tiles
// extended to infinity. The effective tiles partition the whole plane:
// everything outside the indexed space belongs to the border tiles it is
// clamped into.
func (ix *Index) effectiveTile(tx, ty int) geom.Rect {
	r := ix.g.Tile(tx, ty)
	if tx == 0 {
		r.MinX = math.Inf(-1)
	}
	if tx == ix.g.NX-1 {
		r.MaxX = math.Inf(1)
	}
	if ty == 0 {
		r.MinY = math.Inf(-1)
	}
	if ty == ix.g.NY-1 {
		r.MaxY = math.Inf(1)
	}
	return r
}

// windowOnTile evaluates w on the tile at slot: the one per-tile window
// body, for plain and decomposed indexes, filtering and exact queries,
// single and batch callers alike. The slot is also the tile's key into
// the 2-layer+ side table. (qx0,qy0) is the minimum tile coordinate of the
// query's cover range; it drives the Lemma 1-2 class selection: classes C
// and D are read only in the first column of the range (otherwise the
// previous tile in x also holds their entries), and classes B and D only
// in the first row.
func (ix *Index) windowOnTile(slot int32, tx, ty, qx0, qy0 int, w geom.Rect, rf refiner, fn func(spatial.Entry), tally *Stats) {
	t := ix.tile(int(slot))
	plan := ix.planFor(tx, ty, w)
	tally.TilesVisited++

	if rf.exact && rf.mode == RefineAvoidPlus {
		// Class knowledge for RefAvoid+ (Section V): when the window starts
		// before this tile in a dimension, every class that starts inside
		// the tile in that dimension has the lower half of the coverage
		// test already known to hold. Effective extents keep border tiles
		// conservative for out-of-space data.
		eff := ix.effectiveTile(tx, ty)
		rf.knownXLow = w.MinX < eff.MinX // implies w.MinX <= r.MinX for classes A, B
		rf.knownYLow = w.MinY < eff.MinY // implies w.MinY <= r.MinY for classes A, C
	}

	plans := classPlans(tx == qx0, ty == qy0, plan)
	// Selectivity estimates are only needed once some partition is big
	// enough for the binary-search path (Section IV-C).
	var frac [4]float64
	fracReady := false
	for c := ClassA; c <= ClassD; c++ {
		entries := t.classes[c]
		if !plans[c].scan {
			tally.DuplicatesAvoided += int64(len(entries))
			continue
		}
		if len(entries) == 0 {
			continue
		}
		tally.PartitionsScanned++
		tally.ClassScanned[c] += int64(len(entries))
		rf.class = c
		if ix.dec == nil || len(entries) < decSmallClass {
			ix.scanClass(entries, w, plans[c].plan, &rf, fn, tally)
			continue
		}
		if !fracReady {
			frac = ix.compFractions(tx, ty, w)
			fracReady = true
		}
		tabs := ix.dec.class(slot, t, c)
		ix.decClassQuery(&tabs, entries, w, plans[c].plan, &frac, &rf, fn, tally)
	}
}

// classPlan says whether a class is read at all for this tile (Lemmas 1-2)
// and which comparisons its entries need (Lemmas 3-4 plus the per-class
// implications: a class that starts before the tile in a dimension cannot
// fail the lower-bound test in that dimension).
type classPlan struct {
	scan bool
	plan tileComparisonPlan
}

// classPlans combines the Lemma 1-2 class selection with the per-class
// comparison implications:
//
//   - class B starts before the tile in y, so r.MinY <= w.MaxY is implied
//     whenever B is scanned (the window reaches the tile from within or
//     above it);
//   - class C starts before the tile in x, so r.MinX <= w.MaxX is implied;
//   - class D starts before in both, so both lower-bound tests are implied.
func classPlans(first, top bool, plan tileComparisonPlan) [4]classPlan {
	var out [4]classPlan
	out[ClassA] = classPlan{scan: true, plan: plan}
	pB := plan
	pB.needYL = false
	out[ClassB] = classPlan{scan: top, plan: pB}
	pC := plan
	pC.needXL = false
	out[ClassC] = classPlan{scan: first, plan: pC}
	pD := plan
	pD.needXL, pD.needYL = false, false
	out[ClassD] = classPlan{scan: first && top, plan: pD}
	return out
}

// scanClass reports the entries of one secondary partition that intersect
// w (and, on an exact query, pass rf), performing only the comparisons
// the plan requires. It counts entries, comparisons and filter results
// into tally.
func (ix *Index) scanClass(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, rf *refiner, fn func(spatial.Entry), tally *Stats) {
	cmp, hits := 0, 0
	for i := range entries {
		e := &entries[i]
		if p.needXU {
			cmp++
			if e.Rect.MaxX < w.MinX {
				continue
			}
		}
		if p.needXL {
			cmp++
			if e.Rect.MinX > w.MaxX {
				continue
			}
		}
		if p.needYU {
			cmp++
			if e.Rect.MaxY < w.MinY {
				continue
			}
		}
		if p.needYL {
			cmp++
			if e.Rect.MinY > w.MaxY {
				continue
			}
		}
		hits++
		if rf.exact && !ix.refineWindow(rf, e, w, tally) {
			continue
		}
		fn(*e)
	}
	tally.EntriesScanned += int64(len(entries))
	tally.Comparisons += int64(cmp)
	tally.Results += int64(hits)
}
