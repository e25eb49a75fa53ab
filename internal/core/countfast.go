package core

import (
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Count pushdown: count-only window queries never need to materialize or
// even visit individual entries for most of their cover. Lemmas 3-4 say
// tiles strictly interior to the window need no comparisons, so a
// selected class contributes exactly len(class) to the count — O(1) per
// partition instead of O(n). Border tiles with decomposed tables and a
// single pending comparison are answered by one binary search (the run
// length is the count, again without touching entries). Only plain
// border partitions still count entry by entry, through a closure-free
// loop.

// WindowCountFast returns the number of MBRs intersecting w using the
// count-pushdown kernel. On an index with Stats attached it falls back
// to the classic instrumented scan so the documented counter semantics
// (Corollary 1, per-class breakdowns) are preserved exactly.
func (ix *Index) WindowCountFast(w geom.Rect) int {
	if !w.Valid() {
		return 0
	}
	if ix.stats != nil {
		n := 0
		ix.Window(w, func(spatial.Entry) { n++ })
		return n
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	n := 0
	var tally pathTally
	if ix.counts != nil && ix1-ix0 >= 2 && iy1-iy0 >= 2 {
		// Strict interior of the cover: fully covered, class A only —
		// one prefix-rectangle lookup replaces the whole inner loop.
		// Only the cover's perimeter ring still visits tiles.
		inner := ix.counts.rect(ix0+1, iy0+1, ix1-1, iy1-1)
		n += int(inner)
		tally.fastTiles += int64((ix1 - ix0 - 1) * (iy1 - iy0 - 1))
		tally.bulkEntries += inner
		for tx := ix0; tx <= ix1; tx++ {
			if t := ix.tileAt(tx, iy0); t != nil {
				n += ix.windowCountOnTile(t, tx, iy0, ix0, iy0, w, &tally)
			}
			if t := ix.tileAt(tx, iy1); t != nil {
				n += ix.windowCountOnTile(t, tx, iy1, ix0, iy0, w, &tally)
			}
		}
		for ty := iy0 + 1; ty <= iy1-1; ty++ {
			if t := ix.tileAt(ix0, ty); t != nil {
				n += ix.windowCountOnTile(t, ix0, ty, ix0, iy0, w, &tally)
			}
			if t := ix.tileAt(ix1, ty); t != nil {
				n += ix.windowCountOnTile(t, ix1, ty, ix0, iy0, w, &tally)
			}
		}
	} else {
		for ty := iy0; ty <= iy1; ty++ {
			for tx := ix0; tx <= ix1; tx++ {
				t := ix.tileAt(tx, ty)
				if t == nil {
					continue
				}
				n += ix.windowCountOnTile(t, tx, ty, ix0, iy0, w, &tally)
			}
		}
	}
	if ix.met != nil {
		ix.met.fastCounts.Add(1)
		ix.met.flush(&tally)
	}
	return n
}

// windowCountOnTile counts w's matches on one tile. Class selection and
// comparison planning are identical to windowOnTile; only the per-entry
// work is replaced by the cheapest counting strategy available.
func (ix *Index) windowCountOnTile(t *tile, tx, ty, qx0, qy0 int, w geom.Rect, tally *pathTally) int {
	first := tx == qx0
	top := ty == qy0
	plan := ix.planFor(tx, ty, w)
	if plan == (tileComparisonPlan{}) {
		// Interior tile: every entry of every selected class intersects
		// the window, so the tile contributes class lengths in O(1).
		n := len(t.classes[ClassA])
		if top {
			n += len(t.classes[ClassB])
		}
		if first {
			n += len(t.classes[ClassC])
			if top {
				n += len(t.classes[ClassD])
			}
		}
		tally.fastTiles++
		tally.bulkEntries += int64(n)
		return n
	}
	plans := classPlans(first, top, plan)
	n := 0
	fracReady := false
	var frac [4]float64
	for c := ClassA; c <= ClassD; c++ {
		if !plans[c].scan {
			continue
		}
		entries := t.classes[c]
		if len(entries) == 0 {
			continue
		}
		p := plans[c].plan
		if p == (tileComparisonPlan{}) {
			// All remaining comparisons are implied by the class'
			// position: the whole partition qualifies.
			n += len(entries)
			tally.bulkEntries += int64(len(entries))
			continue
		}
		if t.dec != nil && len(entries) >= decSmallClass {
			if !fracReady {
				frac = ix.compFractions(tx, ty, w)
				fracReady = true
			}
			n += decClassCount(&t.dec.cls[c], entries, w, p, &frac)
			continue
		}
		n += countClass(entries, w, p)
	}
	return n
}

// countClass is the closure-free counting twin of scanClass.
func countClass(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan) int {
	n := 0
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
		n++
	}
	return n
}

// decClassCount counts the qualifying entries of one decomposed
// partition. With a single pending comparison the count is the length of
// one binary-search run — no entry is touched at all. With several, the
// most selective one is searched and its run verified against the rest,
// exactly like decClassQuery. The plan must be non-empty (empty plans
// are bulk-counted by the caller).
func decClassCount(d *decClass, entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, frac *[4]float64) int {
	var comps [4]decComparison
	n := 0
	if p.needXU {
		comps[n] = decComparison{table: d.xu, bound: w.MinX, kind: cmpXU}
		n++
	}
	if p.needXL {
		comps[n] = decComparison{table: d.xl, bound: w.MaxX, kind: cmpXL}
		n++
	}
	if p.needYU {
		comps[n] = decComparison{table: d.yu, bound: w.MinY, kind: cmpYU}
		n++
	}
	if p.needYL {
		comps[n] = decComparison{table: d.yl, bound: w.MaxY, kind: cmpYL}
		n++
	}
	best := 0
	for i := 1; i < n; i++ {
		if frac[comps[i].kind] < frac[comps[best].kind] {
			best = i
		}
	}
	var lo, hi int
	if comps[best].isLE() {
		lo, hi = 0, comps[best].table.prefixLE(comps[best].bound)
	} else {
		lo, hi = comps[best].table.suffixGE(comps[best].bound), len(comps[best].table)
	}
	if n == 1 {
		return hi - lo
	}
	table := comps[best].table
	count := 0
	for i := lo; i < hi; i++ {
		e := &entries[table[i].ref]
		ok := true
		for j := 0; j < n; j++ {
			if j == best {
				continue
			}
			if !comps[j].verify(e) {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// WindowCountFiltered counts the entries intersecting w whose
// Rect.MinX >= minX. The sharded engine pushes fan-out counts down with
// it: a fan-out shard contributes exactly the matches homed to it —
// those beginning at or after its slab's left edge — so per-shard counts
// sum to the distinct total without buffering results (docs/SHARDING.md).
//
// The filter keeps the bulk fast paths wherever they are provably safe:
// classes A and B of tile column tx begin inside that column in x, so
// when the column's left edge is at or beyond minX the filter cannot
// reject anything and whole-slice counting still applies. Column 0
// (whose effective extent reaches -inf) and classes C/D (which begin
// left of their tile) are counted entry by entry.
func (ix *Index) WindowCountFiltered(w geom.Rect, minX float64) int {
	if !w.Valid() {
		return 0
	}
	if ix.stats != nil {
		n := 0
		ix.Window(w, func(e spatial.Entry) {
			if e.Rect.MinX >= minX {
				n++
			}
		})
		return n
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	n := 0
	var tally pathTally
	// lo is the first interior tile column whose class-A entries are all
	// provably at or right of minX (class A begins inside its column, so
	// TileMin.X >= minX suffices). Interior tiles from lo on are answered
	// by the prefix table; interior columns left of lo and the perimeter
	// ring take the per-tile filtered kernel.
	lo := ix1 + 1
	if ix.counts != nil && ix1-ix0 >= 2 && iy1-iy0 >= 2 {
		lo = ix0 + 1
		for lo <= ix1-1 && ix.g.TileMin(lo, iy0).X < minX {
			lo++
		}
	}
	if lo <= ix1-1 {
		inner := ix.counts.rect(lo, iy0+1, ix1-1, iy1-1)
		n += int(inner)
		tally.fastTiles += int64((ix1 - lo) * (iy1 - iy0 - 1))
		tally.bulkEntries += inner
		for tx := ix0; tx <= ix1; tx++ {
			if t := ix.tileAt(tx, iy0); t != nil {
				n += ix.windowCountOnTileFiltered(t, tx, iy0, ix0, iy0, w, minX, &tally)
			}
			if t := ix.tileAt(tx, iy1); t != nil {
				n += ix.windowCountOnTileFiltered(t, tx, iy1, ix0, iy0, w, minX, &tally)
			}
		}
		for ty := iy0 + 1; ty <= iy1-1; ty++ {
			for tx := ix0; tx < lo; tx++ {
				if t := ix.tileAt(tx, ty); t != nil {
					n += ix.windowCountOnTileFiltered(t, tx, ty, ix0, iy0, w, minX, &tally)
				}
			}
			if t := ix.tileAt(ix1, ty); t != nil {
				n += ix.windowCountOnTileFiltered(t, ix1, ty, ix0, iy0, w, minX, &tally)
			}
		}
	} else {
		for ty := iy0; ty <= iy1; ty++ {
			for tx := ix0; tx <= ix1; tx++ {
				t := ix.tileAt(tx, ty)
				if t == nil {
					continue
				}
				n += ix.windowCountOnTileFiltered(t, tx, ty, ix0, iy0, w, minX, &tally)
			}
		}
	}
	if ix.met != nil {
		ix.met.fastCounts.Add(1)
		ix.met.flush(&tally)
	}
	return n
}

func (ix *Index) windowCountOnTileFiltered(t *tile, tx, ty, qx0, qy0 int, w geom.Rect, minX float64, tally *pathTally) int {
	first := tx == qx0
	top := ty == qy0
	plan := ix.planFor(tx, ty, w)
	plans := classPlans(first, top, plan)
	abSafe := tx > 0 && ix.g.TileMin(tx, ty).X >= minX
	n := 0
	fracReady := false
	var frac [4]float64
	for c := ClassA; c <= ClassD; c++ {
		if !plans[c].scan {
			continue
		}
		entries := t.classes[c]
		if len(entries) == 0 {
			continue
		}
		p := plans[c].plan
		if abSafe && (c == ClassA || c == ClassB) {
			if p == (tileComparisonPlan{}) {
				n += len(entries)
				tally.bulkEntries += int64(len(entries))
				continue
			}
			if t.dec != nil && len(entries) >= decSmallClass {
				if !fracReady {
					frac = ix.compFractions(tx, ty, w)
					fracReady = true
				}
				n += decClassCount(&t.dec.cls[c], entries, w, p, &frac)
				continue
			}
			n += countClass(entries, w, p)
			continue
		}
		n += countClassMinX(entries, w, p, minX)
	}
	return n
}

// countClassMinX is countClass with the shard-ownership filter applied
// per entry.
func countClassMinX(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, minX float64) int {
	n := 0
	for i := range entries {
		e := &entries[i]
		if e.Rect.MinX < minX {
			continue
		}
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
		n++
	}
	return n
}
