package core

import (
	"slices"
	"sort"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// decPair is one row of a decomposed table: a single MBR coordinate plus a
// reference (index) into the owning class slice, following the
// Decomposition Storage Model (Section IV-C).
type decPair struct {
	coord float64
	ref   uint32
}

// decTable is a decomposed table sorted ascending by coordinate.
type decTable []decPair

// prefixLE returns the number of leading pairs with coord <= v, i.e. the
// entries satisfying an r.dl <= W.du style condition (Lemma 3).
func (t decTable) prefixLE(v float64) int {
	return sort.Search(len(t), func(i int) bool { return t[i].coord > v })
}

// suffixGE returns the start of the trailing pairs with coord >= v, i.e.
// the entries satisfying an r.du >= W.dl style condition (Lemma 4).
func (t decTable) suffixGE(v float64) int {
	return sort.Search(len(t), func(i int) bool { return t[i].coord >= v })
}

// decClass holds the decomposed tables of one secondary partition. Only
// the tables Table II of the paper requires are built:
//
//	class A: xl, xu, yl, yu
//	class B: xl, xu, yu
//	class C: xu, yl, yu
//	class D: xu, yu
type decClass struct {
	xl, xu, yl, yu decTable
}

// decTile holds the decomposed tables of all four classes of one tile.
type decTile struct {
	cls [4]decClass
}

func (d *decTile) footprint() int {
	const pairBytes = 16
	n := 0
	for c := range d.cls {
		n += len(d.cls[c].xl) + len(d.cls[c].xu) + len(d.cls[c].yl) + len(d.cls[c].yu)
	}
	return n * pairBytes
}

// buildTable extracts one coordinate from every entry and sorts
// (slices.SortFunc: pdqsort with no reflection — this is the hot loop of
// decomposed construction). The sort is deterministic for a given input
// order, so identical class slices always yield identical tables.
func buildTable(entries []spatial.Entry, coord func(*spatial.Entry) float64) decTable {
	t := make(decTable, len(entries))
	for i := range entries {
		t[i] = decPair{coord: coord(&entries[i]), ref: uint32(i)}
	}
	slices.SortFunc(t, func(a, b decPair) int {
		switch {
		case a.coord < b.coord:
			return -1
		case a.coord > b.coord:
			return 1
		default:
			return 0
		}
	})
	return t
}

// buildDecTile constructs the decomposed tables of one tile.
func buildDecTile(t *tile) *decTile {
	d := &decTile{}
	for c := ClassA; c <= ClassD; c++ {
		entries := t.classes[c]
		if len(entries) == 0 {
			continue
		}
		if c == ClassA || c == ClassB {
			d.cls[c].xl = buildTable(entries, func(e *spatial.Entry) float64 { return e.Rect.MinX })
		}
		d.cls[c].xu = buildTable(entries, func(e *spatial.Entry) float64 { return e.Rect.MaxX })
		if c == ClassA || c == ClassC {
			d.cls[c].yl = buildTable(entries, func(e *spatial.Entry) float64 { return e.Rect.MinY })
		}
		d.cls[c].yu = buildTable(entries, func(e *spatial.Entry) float64 { return e.Rect.MaxY })
	}
	return d
}

// BuildDecomposed (re)builds the sorted decomposed tables for every tile
// that does not have current ones, turning the index into its "2-layer+"
// variant. Safe to call repeatedly; after updates only stale tiles are
// rebuilt. With Options.BuildThreads resolving to more than one worker
// (and enough tiles to matter), the per-tile table construction is fanned
// across a worker pool — tiles are independent, so the result is
// identical to the sequential build. On a copy-on-write clone the stale
// tiles may sit in pages still shared with older snapshots, so a page is
// owned before the first table pointer is written into it; pages whose
// tables are all current are not touched.
func (ix *Index) BuildDecomposed() {
	ix.mustBeWritable("BuildDecomposed")
	ix.opts.Decompose = true
	// This is the batch refresh point after updates, so the count
	// pushdown's prefix table is rebuilt here too.
	defer ix.buildCountIndex()
	if threads := resolveBuildThreads(ix.opts.BuildThreads); threads > 1 &&
		ix.numTiles >= minParallelDecTiles {
		ix.buildDecomposedParallel(threads)
		return
	}
	for pi := range ix.pages {
		ix.decomposePage(pi)
	}
}

// decomposePage builds the missing decomposed tables of tile page pi.
func (ix *Index) decomposePage(pi int) {
	p := ix.pages[pi]
	n := min(tilePageSize, ix.numTiles-pi<<tilePageShift)
	for i := 0; i < n; i++ {
		if p.tiles[i].dec == nil {
			p = ix.ownTilePage(pi) // no-op once owned
			p.tiles[i].dec = buildDecTile(&p.tiles[i])
		}
	}
}

// Decomposed reports whether the index currently maintains decomposed
// tables (the 2-layer+ variant).
func (ix *Index) Decomposed() bool { return ix.opts.Decompose }

// decComparison describes one pending comparison against the window,
// bound to the decomposed table that can answer it. kind selects the
// coordinate verified when another comparison wins the binary search
// (closure-free: these live on the stack of one tile visit).
type decComparison struct {
	table decTable
	bound float64
	kind  uint8 // cmpXU, cmpXL, cmpYU, cmpYL
}

// Comparison kinds; *U kinds are suffix searches (coord >= bound), *L
// kinds are prefix searches (coord <= bound).
const (
	cmpXU = iota // r.MaxX >= w.MinX
	cmpXL        // r.MinX <= w.MaxX
	cmpYU        // r.MaxY >= w.MinY
	cmpYL        // r.MinY <= w.MaxY
)

// verify checks the comparison directly against an entry's MBR.
func (c *decComparison) verify(e *spatial.Entry) bool {
	switch c.kind {
	case cmpXU:
		return e.Rect.MaxX >= c.bound
	case cmpXL:
		return e.Rect.MinX <= c.bound
	case cmpYU:
		return e.Rect.MaxY >= c.bound
	default:
		return e.Rect.MinY <= c.bound
	}
}

// isLE reports whether the comparison selects a sorted-table prefix.
func (c *decComparison) isLE() bool { return c.kind == cmpXL || c.kind == cmpYL }

// decSmallClass is the partition size below which a plain scan beats the
// binary-search path (searching costs ~log n probes with indirection; a
// handful of entries scan faster directly).
const decSmallClass = 16

// compFractions returns, per comparison kind, the fraction of tile
// (tx,ty)'s extent satisfying it (smaller = more selective) — the
// paper's "dimension covered the least" heuristic for picking the one
// comparison resolved by binary search.
func (ix *Index) compFractions(tx, ty int, w geom.Rect) [4]float64 {
	tMin := ix.g.TileMin(tx, ty)
	invW, invH := ix.g.InvCellW(), ix.g.InvCellH()
	var frac [4]float64
	frac[cmpXU] = (tMin.X + ix.g.CellW() - w.MinX) * invW
	frac[cmpXL] = (w.MaxX - tMin.X) * invW
	frac[cmpYU] = (tMin.Y + ix.g.CellH() - w.MinY) * invH
	frac[cmpYL] = (w.MaxY - tMin.Y) * invH
	return frac
}

// decClassQuery evaluates one secondary partition (of at least
// decSmallClass entries) through its decomposed tables d. Following
// Section IV-C, one comparison — the one in the dimension the window
// covers least, i.e. the most selective — is resolved by binary search,
// and only the qualifying run is verified against the remaining
// comparisons.
func (ix *Index) decClassQuery(d *decClass, entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, frac *[4]float64, rf *refiner, fn func(spatial.Entry)) {
	if ix.stats != nil {
		ix.stats.PartitionsScanned++
	}

	// Collect the comparisons this class still needs.
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

	if n == 0 {
		// Every entry of the class qualifies: emit without comparisons.
		if ix.stats != nil {
			ix.stats.EntriesScanned += int64(len(entries))
			ix.stats.Results += int64(len(entries))
		}
		for i := range entries {
			if rf.exact && !ix.refineWindow(rf, &entries[i], w) {
				continue
			}
			fn(entries[i])
		}
		return
	}

	// Pick the most selective comparison by the paper's "dimension
	// covered the least" heuristic (one binary search total) and resolve
	// it; the qualifying run is verified against the rest.
	best := 0
	for i := 1; i < n; i++ {
		if frac[comps[i].kind] < frac[comps[best].kind] {
			best = i
		}
	}
	var bestLo, bestHi int
	if comps[best].isLE() {
		bestLo, bestHi = 0, comps[best].table.prefixLE(comps[best].bound)
	} else {
		bestLo, bestHi = comps[best].table.suffixGE(comps[best].bound), len(comps[best].table)
	}
	if ix.stats != nil {
		ix.stats.BinarySearches++
	}

	table := comps[best].table
	stats := ix.stats
	if stats != nil {
		stats.EntriesScanned += int64(bestHi - bestLo)
	}
	for i := bestLo; i < bestHi; i++ {
		e := &entries[table[i].ref]
		ok := true
		for j := 0; j < n; j++ {
			if j == best {
				continue
			}
			if stats != nil {
				stats.Comparisons++
			}
			if !comps[j].verify(e) {
				ok = false
				break
			}
		}
		if ok {
			if stats != nil {
				stats.Results++
			}
			if rf.exact && !ix.refineWindow(rf, e, w) {
				continue
			}
			fn(*e)
		}
	}
}
