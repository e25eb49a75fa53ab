package core

import (
	"slices"
	"sort"
	"sync/atomic"

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

// decClass holds the sorted tables of one secondary partition, indexed
// by the comparison kind each one answers (cmpXU: xu, cmpXL: xl, cmpYU:
// yu, cmpYL: yl). Only the tables Table II of the paper requires are
// kept (tableII); the others stay nil.
type decClass [4]decTable

// tableII says, per class, which tables Table II keeps:
//
//	class A: xl, xu, yl, yu
//	class B: xl, xu, yu
//	class C: xu, yl, yu
//	class D: xu, yu
var tableII = [4][4]bool{
	ClassA: {cmpXU: true, cmpXL: true, cmpYU: true, cmpYL: true},
	ClassB: {cmpXU: true, cmpXL: true, cmpYU: true},
	ClassC: {cmpXU: true, cmpYU: true, cmpYL: true},
	ClassD: {cmpXU: true, cmpYU: true},
}

// tablesPerClass counts the true entries of each row of tableII.
var tablesPerClass = [4]int{ClassA: 4, ClassB: 3, ClassC: 3, ClassD: 2}

// decIndex is the 2-layer+ side table of one index: the Table II tables
// of every tile, indexed by slot and carved from one slab of pairs. A
// tile's tables start at pairs[at[slot]] and follow class order, each
// class's in comparison-kind order, each table as long as its class.
// Like the count prefix table it is derived and read-only: Build, Load
// and BuildDecomposed make a fresh one, View and CloneCOW share it by
// pointer, and the first write drops it (Insert, Delete).
type decIndex struct {
	at    []int
	pairs []decPair
}

// class returns the tables of class c of the tile at slot, whose class
// slices are t's.
func (d *decIndex) class(slot int32, t *tile, c Class) decClass {
	off := d.at[slot]
	for p := ClassA; p < c; p++ {
		off += tablesPerClass[p] * len(t.classes[p])
	}
	n := len(t.classes[c])
	var tabs decClass
	for k, kept := range tableII[c] {
		if kept {
			tabs[k] = d.pairs[off : off+n : off+n]
			off += n
		}
	}
	return tabs
}

// footprint is the table's size in bytes: 16 per pair, 8 per slot.
func (d *decIndex) footprint() int { return 16*len(d.pairs) + 8*len(d.at) }

// fill writes and sorts the tables of the tile at slot. The sort
// (slices.SortFunc: pdqsort with no reflection, the hot loop of the
// build) is deterministic for a given input order, so identical class
// slices always yield identical tables.
func (d *decIndex) fill(slot int32, t *tile) {
	for c := ClassA; c <= ClassD; c++ {
		entries := t.classes[c]
		for k, tab := range d.class(slot, t, c) {
			for i := range tab {
				tab[i] = decPair{coord: coordOf(k, &entries[i]), ref: uint32(i)}
			}
			slices.SortFunc(tab, func(a, b decPair) int {
				switch {
				case a.coord < b.coord:
					return -1
				case a.coord > b.coord:
					return 1
				default:
					return 0
				}
			})
		}
	}
}

// coordOf returns the MBR coordinate comparison kind k tests.
func coordOf(k int, e *spatial.Entry) float64 {
	switch k {
	case cmpXU:
		return e.Rect.MaxX
	case cmpXL:
		return e.Rect.MinX
	case cmpYU:
		return e.Rect.MaxY
	default:
		return e.Rect.MinY
	}
}

// decChunk is the number of slots a BuildDecomposed worker claims at a
// time.
const decChunk = 256

// BuildDecomposed builds the sorted tables of Table II for every tile
// into a fresh side table, turning the index into its "2-layer+" variant,
// and rebuilds the count prefix table with it. It writes no tile page,
// so it is legal on an unpublished copy-on-write clone and copies no
// page there.
func (ix *Index) BuildDecomposed() {
	ix.mustBeWritable("BuildDecomposed")
	ix.dec = ix.buildDecIndex()
	ix.buildCountIndex()
}

// buildReadTables makes the derived read tables of a freshly built or
// loaded index: the count prefix table, and the 2-layer+ side table when
// Options.Decompose asks for it.
func (ix *Index) buildReadTables() {
	if ix.opts.Decompose {
		ix.dec = ix.buildDecIndex()
	}
	ix.buildCountIndex()
}

// buildDecIndex builds a side table over the current tiles. One sweep
// sizes every tile's tables and carves them from one slab; with
// Options.BuildThreads resolving to more than one worker (and enough
// tiles to matter), workers then fill and sort disjoint slot ranges —
// tiles are independent, so the result is identical to the sequential
// build.
func (ix *Index) buildDecIndex() *decIndex {
	d := &decIndex{at: make([]int, ix.numTiles)}
	total := 0
	for slot := range d.at {
		d.at[slot] = total
		for c, cl := range ix.tile(slot).classes {
			total += tablesPerClass[c] * len(cl)
		}
	}
	d.pairs = make([]decPair, total)
	threads := resolveBuildThreads(ix.opts.BuildThreads)
	if ix.numTiles < minParallelDecTiles {
		threads = 1
	}
	var next atomic.Int64
	runWorkers(threads, func(int) {
		for {
			lo := int(next.Add(decChunk)) - decChunk
			if lo >= ix.numTiles {
				return
			}
			for slot := lo; slot < min(lo+decChunk, ix.numTiles); slot++ {
				d.fill(int32(slot), ix.tile(slot))
			}
		}
	})
	return d
}

// Decomposed reports whether the index holds 2-layer+ tables: true from
// a Build with Options.Decompose, a Load of such a snapshot, or
// BuildDecomposed, until the first Insert or successful Delete.
func (ix *Index) Decomposed() bool { return ix.dec != nil }

// decComparison is one comparison against the window left to verify
// on the entries of a binary-search run (closure-free: these live on
// the stack of one tile visit).
type decComparison struct {
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

// decPlan is how one class of a tile answers a window through its
// sorted tables (Section IV-C): the comparison in the dimension the
// window covers least (frac, the paper's heuristic) is resolved by one
// binary search, whose qualifying run is run, and only the other
// comparisons the plan still needs are verified, on the run's entries.
type decPlan struct {
	run  decTable
	rest [3]decComparison
	n    int // comparisons in rest
}

// init plans class tables d against w for comparison plan p, which must
// be non-empty (an empty plan qualifies the whole class).
func (dp *decPlan) init(d *decClass, w geom.Rect, p tileComparisonPlan, frac *[4]float64) {
	bounds := [4]float64{cmpXU: w.MinX, cmpXL: w.MaxX, cmpYU: w.MinY, cmpYL: w.MaxY}
	need := [4]bool{cmpXU: p.needXU, cmpXL: p.needXL, cmpYU: p.needYU, cmpYL: p.needYL}
	best := -1
	for k := range need {
		if need[k] && (best < 0 || frac[k] < frac[best]) {
			best = k
		}
	}
	if t := d[best]; best == cmpXL || best == cmpYL {
		dp.run = t[:t.prefixLE(bounds[best])]
	} else {
		dp.run = t[t.suffixGE(bounds[best]):]
	}
	for k := range need {
		if need[k] && k != best {
			dp.rest[dp.n] = decComparison{bound: bounds[k], kind: uint8(k)}
			dp.n++
		}
	}
}

// passes reports whether e, read from the run, passes the comparisons
// left to verify, and how many of them it took to tell.
func (dp *decPlan) passes(e *spatial.Entry) (bool, int) {
	for j := 0; j < dp.n; j++ {
		if !dp.rest[j].verify(e) {
			return false, j + 1
		}
	}
	return true, dp.n
}

// decClassQuery evaluates one secondary partition (of at least
// decSmallClass entries) through its decomposed tables d. Following
// Section IV-C, one comparison — the one in the dimension the window
// covers least, i.e. the most selective — is resolved by binary search,
// and only the qualifying run is verified against the remaining
// comparisons.
func (ix *Index) decClassQuery(d *decClass, entries []spatial.Entry, w geom.Rect, p tileComparisonPlan, frac *[4]float64, rf *refiner, fn func(spatial.Entry), tally *Stats) {
	if p == (tileComparisonPlan{}) {
		// Every entry of the class qualifies: emit without comparisons.
		tally.EntriesScanned += int64(len(entries))
		tally.Results += int64(len(entries))
		for i := range entries {
			if rf.exact && !ix.refineWindow(rf, &entries[i], w, tally) {
				continue
			}
			fn(entries[i])
		}
		return
	}

	var dp decPlan
	dp.init(d, w, p, frac)
	tally.BinarySearches++
	tally.EntriesScanned += int64(len(dp.run))
	for _, pr := range dp.run {
		e := &entries[pr.ref]
		ok, made := dp.passes(e)
		tally.Comparisons += int64(made)
		if !ok {
			continue
		}
		tally.Results++
		if rf.exact && !ix.refineWindow(rf, e, w, tally) {
			continue
		}
		fn(*e)
	}
}
