package core

import (
	"math"
	"sync"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Window runs the filtering step of a window query: fn is invoked exactly
// once for every entry whose MBR intersects w. No duplicates are ever
// produced, so no result deduplication happens anywhere (Algorithm 1 of
// the paper).
func (ix *Index) Window(w geom.Rect, fn func(e spatial.Entry)) {
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
			ix.windowOnTile(t, tx, ty, ix0, iy0, w, fn)
		}
	}
}

// idCollector is a pooled ID sink whose append closure is bound once at
// pool construction, so WindowIDs and DiskIDs stay at zero allocations
// per call after warm-up (a fresh per-call closure would escape and
// allocate on every query).
type idCollector struct {
	ids  []spatial.ID
	emit func(spatial.Entry)
}

var idCollectorPool = sync.Pool{New: func() any {
	c := &idCollector{}
	c.emit = func(e spatial.Entry) { c.ids = append(c.ids, e.ID) }
	return c
}}

// WindowIDs runs Window and collects result IDs into buf, which may be nil
// or a reused buffer.
func (ix *Index) WindowIDs(w geom.Rect, buf []spatial.ID) []spatial.ID {
	c := idCollectorPool.Get().(*idCollector)
	c.ids = buf[:0]
	ix.Window(w, c.emit)
	out := c.ids
	c.ids = nil
	idCollectorPool.Put(c)
	return out
}

// WindowCount returns the number of MBRs intersecting w. It is served by
// the count-pushdown kernel: interior tiles contribute class lengths in
// O(1) and decomposed border tiles are answered by binary search, so no
// per-entry callback runs (see WindowCountFast).
func (ix *Index) WindowCount(w geom.Rect) int {
	return ix.WindowCountFast(w)
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

// windowOnTile evaluates w on one tile. (qx0,qy0) is the minimum tile
// coordinate of the query's cover range; it drives the Lemma 1-2 class
// selection: classes C and D are read only in the first column of the
// range (otherwise the previous tile in x also holds their entries), and
// classes B and D only in the first row.
func (ix *Index) windowOnTile(t *tile, tx, ty, qx0, qy0 int, w geom.Rect, fn func(spatial.Entry)) {
	first := tx == qx0
	top := ty == qy0
	plan := ix.planFor(tx, ty, w)

	if ix.stats != nil {
		ix.stats.TilesVisited++
		ix.stats.ClassScanned[ClassA] += int64(len(t.classes[ClassA]))
		if top {
			ix.stats.ClassScanned[ClassB] += int64(len(t.classes[ClassB]))
		} else {
			ix.stats.DuplicatesAvoided += int64(len(t.classes[ClassB]))
		}
		if first {
			ix.stats.ClassScanned[ClassC] += int64(len(t.classes[ClassC]))
		} else {
			ix.stats.DuplicatesAvoided += int64(len(t.classes[ClassC]))
		}
		if first && top {
			ix.stats.ClassScanned[ClassD] += int64(len(t.classes[ClassD]))
		} else {
			ix.stats.DuplicatesAvoided += int64(len(t.classes[ClassD]))
		}
	}

	if t.dec != nil {
		ix.windowOnTileDecomposed(t, tx, ty, first, top, w, plan, fn)
		return
	}

	plans := classPlans(first, top, plan)
	for c := ClassA; c <= ClassD; c++ {
		if plans[c].scan {
			ix.scanClass(t.classes[c], w, plans[c].plan, fn)
		}
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
// w, performing only the comparisons the plan requires.
func (ix *Index) scanClass(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, fn func(spatial.Entry)) {
	if len(entries) == 0 {
		return
	}
	if ix.stats != nil {
		ix.scanClassCounted(entries, w, p, fn)
		return
	}
	for i := range entries {
		e := &entries[i]
		if p.needXU && e.Rect.MaxX < w.MinX {
			continue
		}
		if p.needXL && e.Rect.MinX > w.MaxX {
			continue
		}
		if p.needYU && e.Rect.MaxY < w.MinY {
			continue
		}
		if p.needYL && e.Rect.MinY > w.MaxY {
			continue
		}
		fn(*e)
	}
}

// scanClassCounted is the instrumented twin of scanClass.
func (ix *Index) scanClassCounted(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, fn func(spatial.Entry)) {
	s := ix.stats
	s.PartitionsScanned++
	s.EntriesScanned += int64(len(entries))
	for i := range entries {
		e := &entries[i]
		if p.needXU {
			s.Comparisons++
			if e.Rect.MaxX < w.MinX {
				continue
			}
		}
		if p.needXL {
			s.Comparisons++
			if e.Rect.MinX > w.MaxX {
				continue
			}
		}
		if p.needYU {
			s.Comparisons++
			if e.Rect.MaxY < w.MinY {
				continue
			}
		}
		if p.needYL {
			s.Comparisons++
			if e.Rect.MinY > w.MaxY {
				continue
			}
		}
		s.Results++
		fn(*e)
	}
}
