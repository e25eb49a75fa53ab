package core

import (
	"math"

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

// WindowCount returns the number of MBRs intersecting w using the
// count-pushdown kernel, with or without Stats attached: the kernel
// counts its own work (see Stats).
func (ix *Index) WindowCount(w geom.Rect) int { return ix.WindowCountFiltered(w, math.Inf(-1)) }

// WindowCountFiltered counts the entries intersecting w whose
// Rect.MinX >= minX. The sharded engine pushes fan-out counts down with
// it: a fan-out shard contributes exactly the matches homed to it —
// those beginning at or after its slab's left edge — so per-shard counts
// sum to the distinct total without buffering results (docs/SHARDING.md).
// A minX of -Inf filters nothing: it is WindowCount.
func (ix *Index) WindowCountFiltered(w geom.Rect, minX float64) int {
	tally := Stats{FastCounts: 1}
	n := ix.windowCount(w, minX, &tally)
	ix.finish(&tally)
	return n
}

// windowCount is the one cover walk behind both entries and the
// queries-based batch. A finite minX keeps the bulk fast paths wherever
// they are provably safe (classes A and B of a tile column at or right
// of minX begin inside that column, so the filter cannot reject them);
// classes C and D, which begin left of their tile, and column 0 are then
// counted entry by entry.
func (ix *Index) windowCount(w geom.Rect, minX float64, tally *Stats) int {
	if !w.Valid() {
		return 0
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	n := 0
	// Strict interior of the cover: fully covered, class A only, so one
	// prefix-rectangle lookup answers interior columns lo..ix1-1 and only
	// the rest of the cover still visits tiles. lo is the first interior
	// column whose class-A entries are all provably at or right of minX
	// (class A begins inside its column, so TileMin.X >= minX suffices);
	// ix1 means the table answers nothing.
	lo := ix1
	if ix.counts != nil && ix1-ix0 >= 2 && iy1-iy0 >= 2 {
		lo = ix0 + 1
		for lo < ix1 && ix.g.TileMin(lo, iy0).X < minX {
			lo++
		}
	}
	if lo < ix1 {
		inner := ix.counts.rect(lo, iy0+1, ix1-1, iy1-1)
		n += int(inner)
		tally.FastTiles += int64((ix1 - lo) * (iy1 - iy0 - 1))
		tally.BulkEntries += inner
		tally.Results += inner
	}
	for ty := iy0; ty <= iy1; ty++ {
		for tx := ix0; tx <= ix1; tx++ {
			if tx == lo && lo < ix1 && ty > iy0 && ty < iy1 {
				tx = ix1 - 1 // the table's share of this row
				continue
			}
			if slot := ix.slotAt(tx, ty); slot >= 0 {
				n += ix.windowCountOnTile(slot, tx, ty, ix0, iy0, w, minX, tally)
			}
		}
	}
	return n
}

// windowCountOnTile counts w's matches with Rect.MinX >= minX on the
// tile at slot. Class selection and comparison planning are identical to
// windowOnTile; only the per-entry work is replaced by the cheapest
// counting strategy the filter leaves available. A partition counted
// whole goes to tally.BulkEntries, not to EntriesScanned.
func (ix *Index) windowCountOnTile(slot int32, tx, ty, qx0, qy0 int, w geom.Rect, minX float64, tally *Stats) int {
	t := ix.tile(int(slot))
	plan := ix.planFor(tx, ty, w)
	plans := classPlans(tx == qx0, ty == qy0, plan)
	unfiltered := math.IsInf(minX, -1)
	tally.TilesVisited++
	if unfiltered && plan == (tileComparisonPlan{}) {
		// Interior tile: every entry of every selected class intersects
		// the window, so the tile contributes class lengths in O(1).
		tally.FastTiles++
	}
	// ownColumn: the column's left edge is at or right of a finite minX,
	// so the classes that begin inside the column (A and B) pass the
	// filter whole. Column 0 reaches -inf and never qualifies.
	ownColumn := !unfiltered && tx > 0 && ix.g.TileMin(tx, ty).X >= minX
	n := 0
	fracReady := false
	var frac [4]float64
	for c := ClassA; c <= ClassD; c++ {
		entries := t.classes[c]
		if !plans[c].scan {
			tally.DuplicatesAvoided += int64(len(entries))
			continue
		}
		if len(entries) == 0 {
			continue
		}
		p := plans[c].plan
		// safe: minX cannot reject an entry of this class, so the
		// shortcuts that never look at one still apply.
		safe := unfiltered || (ownColumn && c <= ClassB)
		if safe && p == (tileComparisonPlan{}) {
			// All remaining comparisons are implied by the class'
			// position: the whole partition qualifies.
			n += len(entries)
			tally.BulkEntries += int64(len(entries))
			continue
		}
		tally.PartitionsScanned++
		tally.ClassScanned[c] += int64(len(entries))
		if safe && ix.dec != nil && len(entries) >= decSmallClass {
			if !fracReady {
				frac = ix.compFractions(tx, ty, w)
				fracReady = true
			}
			tabs := ix.dec.class(slot, t, c)
			n += decClassCount(&tabs, entries, w, p, &frac, tally)
		} else {
			n += countClass(entries, w, p, minX, tally)
		}
	}
	tally.Results += int64(n)
	return n
}

// decClassCount counts the qualifying entries of one decomposed
// partition. With a single pending comparison the count is the length of
// one binary-search run — no entry is touched at all. With several, the
// most selective one is searched and its run verified against the rest,
// exactly like decClassQuery. The plan must be non-empty (empty plans
// are bulk-counted by the caller).
func decClassCount(d *decClass, entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, frac *[4]float64, tally *Stats) int {
	var dp decPlan
	dp.init(d, w, p, frac)
	tally.BinarySearches++
	if dp.n == 0 {
		return len(dp.run)
	}
	count, cmp := 0, 0
	for _, pr := range dp.run {
		ok, made := dp.passes(&entries[pr.ref])
		cmp += made
		if ok {
			count++
		}
	}
	tally.EntriesScanned += int64(len(dp.run))
	tally.Comparisons += int64(cmp)
	return count
}

// countClass is the counting twin of scanClass, with the
// shard-ownership filter Rect.MinX >= minX applied per entry (-Inf
// rejects nothing) before the comparisons, which it counts like
// scanClass.
func countClass(entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, minX float64, tally *Stats) int {
	n, cmp := 0, 0
	for i := range entries {
		e := &entries[i]
		if e.Rect.MinX < minX {
			continue
		}
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
		n++
	}
	tally.EntriesScanned += int64(len(entries))
	tally.Comparisons += int64(cmp)
	return n
}
