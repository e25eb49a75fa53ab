package core

import (
	"container/heap"
	"math"
	"time"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements k-nearest-neighbor search over the two-layer grid,
// one of the query types the paper names as future work for SOP indices
// with secondary partitioning. The search expands square rings of tiles
// around the query point and stops when the next ring cannot contain a
// closer object than the current k-th candidate. Like the range queries'
// class selection (Lemmas 1-2), it never generates a duplicate: an object
// is considered only in the tile of its cover nearest to q's tile, so the
// search keeps no per-query or per-index state.

// Neighbor is one kNN result.
type Neighbor struct {
	ID   spatial.ID
	Dist float64 // Euclidean distance from the query point to the MBR
}

// neighborHeap is a max-heap on distance, holding the best k candidates.
type neighborHeap []Neighbor

func (h neighborHeap) Len() int           { return len(h) }
func (h neighborHeap) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h neighborHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// KNN returns the k objects whose MBRs are nearest to q, ordered by
// ascending distance. Ties are broken arbitrarily. It allocates only the
// result slice and keeps no state on the index, so any number of
// goroutines may run it on a shared index that is not being updated.
func (ix *Index) KNN(q geom.Point, k int) []Neighbor { return ix.knnSearch(q, k, false) }

// KNNExact returns the k objects whose exact geometries are nearest to q,
// ascending by true geometric distance. MBR distances lower-bound exact
// distances, so candidates are pruned by MBR before the geometry is
// consulted; the ring-expansion stop criterion remains valid because tile
// distance lower-bounds MBR distance lower-bounds exact distance. The
// index must have been built over a Dataset.
func (ix *Index) KNNExact(q geom.Point, k int) []Neighbor {
	if ix.dataset == nil {
		panic("core: KNNExact requires an index built over a Dataset")
	}
	return ix.knnSearch(q, k, true)
}

// knnSearch is the one ring expansion behind KNN and KNNExact; exact
// ranks candidates by geometry distance instead of MBR distance.
func (ix *Index) knnSearch(q geom.Point, k int, exact bool) []Neighbor {
	if k <= 0 || ix.size == 0 {
		return nil
	}
	best := make(neighborHeap, 0, k)
	kth := math.Inf(1)

	// An object is considered only in the tile of its cover nearest to
	// (cx, cy): (clamp(cx, col(MinX), col(MaxX)), clamp(cy, row(MinY),
	// row(MaxY))), since CellOf is monotone. In a column past cx that is
	// its tile only if the MBR begins in the column (classes A/B), in a
	// column before cx only if the MBR ends there; rows past and before
	// cy likewise (classes A/C, then the end row); cx's own column and
	// cy's own row need no test. That tile lies in the lowest ring of
	// the cover, so the ring stop stays valid.
	cx, cy := ix.g.CellOf(q)
	var tally Stats
	consider := func(tx, ty int, t *tile) {
		tally.TilesVisited++
		endX, endY := tx < cx, ty < cy
		for c := ClassA; c <= ClassD; c++ {
			entries := t.classes[c]
			if (tx > cx && (c == ClassC || c == ClassD)) || (ty > cy && (c == ClassB || c == ClassD)) {
				tally.DuplicatesAvoided += int64(len(entries))
				continue
			}
			if len(entries) > 0 {
				tally.PartitionsScanned++
				tally.EntriesScanned += int64(len(entries))
				tally.ClassScanned[c] += int64(len(entries))
			}
			for i := range entries {
				e := &entries[i]
				if endX || endY {
					// The cell mapping CoverRect placed the object with,
					// never a recomputed tile edge.
					ex, ey := ix.g.CellOf(geom.Point{X: e.Rect.MaxX, Y: e.Rect.MaxY})
					if (endX && ex != tx) || (endY && ey != ty) {
						continue
					}
				}
				tally.DistanceComputations++
				d2 := e.Rect.DistSqToPoint(q)
				if exact {
					if len(best) == k && d2 > kth {
						continue // MBR lower bound prunes the geometry test
					}
					tally.RefinementTests++
					if tr := ix.trace; tr != nil {
						t0 := time.Now()
						d2 = exactDistSq(ix.dataset.Geom(e.ID), q)
						tr.RefineNS += time.Since(t0).Nanoseconds()
					} else {
						d2 = exactDistSq(ix.dataset.Geom(e.ID), q)
					}
				}
				if len(best) < k {
					heap.Push(&best, Neighbor{ID: e.ID, Dist: d2})
					if len(best) == k {
						kth = best[0].Dist
					}
				} else if d2 < kth {
					best[0] = Neighbor{ID: e.ID, Dist: d2}
					heap.Fix(&best, 0)
					kth = best[0].Dist
				}
			}
		}
	}

	// Ring expansion around the tile containing q.
	maxRing := ix.g.NX
	if ix.g.NY > maxRing {
		maxRing = ix.g.NY
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Stop when even the nearest point of the ring is farther than
		// the current k-th distance (and we already have k results).
		if len(best) == k && ringDistSq(ix, q, cx, cy, ring) > kth {
			break
		}
		ix.forEachRingTile(cx, cy, ring, consider)
	}

	// Extract ascending and convert squared distances.
	out := make([]Neighbor, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		n := heap.Pop(&best).(Neighbor)
		n.Dist = math.Sqrt(n.Dist)
		out[i] = n
	}
	tally.Results += int64(len(out))
	ix.finish(&tally)
	return out
}

// exactDistSq returns the squared distance from q to a geometry, using
// the type-specific distance where available and a binary refinement of
// IntersectsDisk otherwise.
func exactDistSq(g geom.Geometry, q geom.Point) float64 {
	switch t := g.(type) {
	case *geom.LineString:
		return t.DistSqToPoint(q)
	case *geom.Polygon:
		return t.DistSqToPoint(q)
	case geom.RectGeometry:
		return geom.Rect(t).DistSqToPoint(q)
	case geom.PointGeometry:
		return geom.Point(t).DistSq(q)
	default:
		// Generic fallback: the MBR distance lower-bounds and the
		// max-corner distance upper-bounds the true distance; bisect
		// IntersectsDisk between them.
		mbr := g.MBR()
		lo := mbr.DistToPoint(q)
		hi := math.Sqrt(mbr.MaxDistSqToPoint(q))
		for i := 0; i < 40 && hi-lo > 1e-12; i++ {
			mid := (lo + hi) / 2
			if g.IntersectsDisk(q, mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi * hi
	}
}

// ringDistSq returns the squared distance from q to the closest point of
// ring r around tile (cx, cy): the band of tiles whose Chebyshev tile
// distance from (cx, cy) equals r. Ring 0 contains q itself.
func ringDistSq(ix *Index, q geom.Point, cx, cy, ring int) float64 {
	if ring == 0 {
		return 0
	}
	// The ring's inner boundary is the border of the (2r-1)x(2r-1) tile
	// block centered at (cx, cy).
	inner := geom.Rect{
		MinX: ix.g.TileMin(cx-ring+1, cy-ring+1).X,
		MinY: ix.g.TileMin(cx-ring+1, cy-ring+1).Y,
		MaxX: ix.g.TileMin(cx+ring, cy+ring).X,
		MaxY: ix.g.TileMin(cx+ring, cy+ring).Y,
	}
	// Distance from q to the outside of that block: if q is inside (the
	// usual case), it is the distance to the block border.
	dx := math.Min(q.X-inner.MinX, inner.MaxX-q.X)
	dy := math.Min(q.Y-inner.MinY, inner.MaxY-q.Y)
	d := math.Min(dx, dy)
	if d < 0 {
		return 0 // q outside the block: the ring may touch q
	}
	return d * d
}

// forEachRingTile visits the non-empty tiles at Chebyshev distance ring
// from (cx, cy), clamped to the grid.
func (ix *Index) forEachRingTile(cx, cy, ring int, fn func(tx, ty int, t *tile)) {
	visit := func(tx, ty int) {
		if tx < 0 || ty < 0 || tx >= ix.g.NX || ty >= ix.g.NY {
			return
		}
		if t := ix.tileAt(tx, ty); t != nil {
			fn(tx, ty, t)
		}
	}
	if ring == 0 {
		visit(cx, cy)
		return
	}
	for tx := cx - ring; tx <= cx+ring; tx++ {
		visit(tx, cy-ring)
		visit(tx, cy+ring)
	}
	for ty := cy - ring + 1; ty <= cy+ring-1; ty++ {
		visit(cx-ring, ty)
		visit(cx+ring, ty)
	}
}
