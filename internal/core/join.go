package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/twolayer/twolayer/internal/spatial"
)

// Join precondition errors, reported by Joinable (and carried by the
// panics of Join and JoinParallel).
var (
	// ErrSelfJoin means both operands are the same Index instance; build a
	// second index over the same data instead.
	ErrSelfJoin = errors.New("core: self-join needs two index instances over the data")
	// ErrGridMismatch means the operands were built over different grid
	// geometries (tile counts or space).
	ErrGridMismatch = errors.New("core: join requires indices with identical grid geometry")
)

// This file implements the spatial intersection join R ⋈ S over two
// two-layer indices that share the same grid — the second query type the
// paper names as future work for secondary-partitioned SOP indices.
//
// Replication would normally make a grid join report a pair once per
// common tile. The four classes remove the duplicates for free: a pair
// (r, s) is reported only in the single tile that contains the minimum
// corner of r ∩ s, and that is exactly the tile where, in each dimension,
// at least one of the two objects begins inside the tile. Enumerating
// class combinations with that property gives, per tile:
//
//	R.A × {S.A, S.B, S.C, S.D}
//	R.B × {S.A, S.C}
//	R.C × {S.A, S.B}
//	R.D × {S.A}
//
// Every qualifying pair is produced in exactly one tile, so the join
// needs no result deduplication at all.

// joinCombos lists the (R class, S class) pairs evaluated per tile.
var joinCombos = [...][2]Class{
	{ClassA, ClassA}, {ClassA, ClassB}, {ClassA, ClassC}, {ClassA, ClassD},
	{ClassB, ClassA}, {ClassB, ClassC},
	{ClassC, ClassA}, {ClassC, ClassB},
	{ClassD, ClassA},
}

// Join computes the intersection join between the objects of ix and
// other, invoking fn exactly once per intersecting (r, s) pair. Both
// indices must have been built over the same grid geometry (tile counts
// and space); Join panics otherwise, since silently joining mismatched
// partitions would produce garbage. Joining an index with itself is not
// supported (build a second index over the same data instead).
func (ix *Index) Join(other *Index, fn func(r, s spatial.Entry)) {
	checkJoinable(ix, other)
	var tally Stats
	for slot := 0; slot < ix.numTiles; slot++ {
		tR := ix.tile(slot)
		tx, ty := ix.g.TileCoords(int(ix.tileID(slot)))
		if tS := other.tileAt(tx, ty); tS != nil {
			joinTile(tR, tS, fn, &tally)
		}
	}
	ix.finish(&tally)
}

// Joinable reports why a and b cannot be joined — ErrSelfJoin or a
// wrapped ErrGridMismatch — or nil when they can.
func Joinable(a, b *Index) error {
	if a == b {
		return ErrSelfJoin
	}
	if a.g.NX != b.g.NX || a.g.NY != b.g.NY || a.opts.Space != b.opts.Space {
		return fmt.Errorf("%w: %dx%d %v vs %dx%d %v", ErrGridMismatch,
			a.g.NX, a.g.NY, a.opts.Space, b.g.NX, b.g.NY, b.opts.Space)
	}
	return nil
}

// checkJoinable panics unless the two indices share a grid geometry and
// are distinct instances.
func checkJoinable(a, b *Index) {
	if err := Joinable(a, b); err != nil {
		panic(err)
	}
}

// JoinCount returns the number of intersecting pairs.
func (ix *Index) JoinCount(other *Index) int {
	n := 0
	ix.Join(other, func(_, _ spatial.Entry) { n++ })
	return n
}

// sweepThreshold is the pair-count above which a class combination is
// joined by sorting and plane sweep; below it a direct nested loop is
// cheaper than sorting (fine grids have tiny per-tile class lists).
const sweepThreshold = 1024

// joinTile evaluates all class combinations of one common tile,
// counting the tile and the pairs it reports into tally (the receiver's
// Stats govern a join).
func joinTile(tR, tS *tile, fn func(r, s spatial.Entry), tally *Stats) {
	tally.TilesVisited++
	// Sort each non-empty class at most once per tile, and only when a
	// combination is large enough for the sweep to pay off.
	var sortedR, sortedS [4][]spatial.Entry
	for _, combo := range joinCombos {
		cr, cs := combo[0], combo[1]
		rs, ss := tR.class(cr), tS.class(cs)
		if len(rs) == 0 || len(ss) == 0 {
			continue
		}
		if len(rs)*len(ss) <= sweepThreshold {
			tally.Results += int64(nestedJoin(rs, ss, fn))
			continue
		}
		if sortedR[cr] == nil {
			sortedR[cr] = sortByMinX(rs)
		}
		if sortedS[cs] == nil {
			sortedS[cs] = sortByMinX(ss)
		}
		tally.Results += int64(sweep(sortedR[cr], sortedS[cs], fn))
	}
}

// nestedJoin reports intersecting pairs by direct nested loop and
// returns how many it reported.
func nestedJoin(rs, ss []spatial.Entry, fn func(r, s spatial.Entry)) int {
	n := 0
	for i := range rs {
		r := &rs[i]
		for j := range ss {
			if r.Rect.Intersects(ss[j].Rect) {
				fn(*r, ss[j])
				n++
			}
		}
	}
	return n
}

func sortByMinX(entries []spatial.Entry) []spatial.Entry {
	out := make([]spatial.Entry, len(entries))
	copy(out, entries)
	slices.SortFunc(out, func(a, b spatial.Entry) int {
		switch {
		case a.Rect.MinX < b.Rect.MinX:
			return -1
		case a.Rect.MinX > b.Rect.MinX:
			return 1
		default:
			return 0
		}
	})
	return out
}

// sweep reports every intersecting pair between two MinX-sorted lists
// with the classic forward-scan plane sweep: each rectangle scans forward
// in the other list while x-projections overlap, verifying y overlap. It
// returns how many pairs it reported.
func sweep(rs, ss []spatial.Entry, fn func(r, s spatial.Entry)) int {
	i, j, n := 0, 0, 0
	for i < len(rs) && j < len(ss) {
		if rs[i].Rect.MinX <= ss[j].Rect.MinX {
			r := &rs[i]
			for k := j; k < len(ss) && ss[k].Rect.MinX <= r.Rect.MaxX; k++ {
				s := &ss[k]
				if r.Rect.MinY <= s.Rect.MaxY && s.Rect.MinY <= r.Rect.MaxY {
					fn(*r, *s)
					n++
				}
			}
			i++
		} else {
			s := &ss[j]
			for k := i; k < len(rs) && rs[k].Rect.MinX <= s.Rect.MaxX; k++ {
				r := &rs[k]
				if r.Rect.MinY <= s.Rect.MaxY && s.Rect.MinY <= r.Rect.MaxY {
					fn(*r, *s)
					n++
				}
			}
			j++
		}
	}
	return n
}
