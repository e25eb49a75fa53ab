// Package grid implements the primary space-oriented partitioning used by
// the grid-based indices in this library: a regular NxM decomposition of a
// bounding space into disjoint tiles. The package provides the coordinate
// algebra only (tile extents, point and rectangle location); index
// structures layer object storage on top.
package grid

import (
	"fmt"

	"github.com/twolayer/twolayer/internal/geom"
)

// Grid is a regular NX x NY decomposition of Space into tiles. Tiles are
// addressed by (ix, iy) with ix in [0,NX) and iy in [0,NY), or by the
// linear ID iy*NX+ix. Tile (0,0) holds the minimum corner of Space.
type Grid struct {
	Space  geom.Rect
	NX, NY int

	cellW, cellH float64
	invW, invH   float64
}

// New returns a grid over space with the given tile counts per dimension.
// It panics if nx or ny is not positive or space is degenerate, since a
// grid with no extent cannot partition anything.
func New(space geom.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %dx%d", nx, ny))
	}
	if !space.Valid() || space.Width() <= 0 || space.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate space %v", space))
	}
	w := space.Width() / float64(nx)
	h := space.Height() / float64(ny)
	return &Grid{
		Space: space, NX: nx, NY: ny,
		cellW: w, cellH: h,
		invW: 1 / w, invH: 1 / h,
	}
}

// NumTiles returns the total number of tiles.
func (g *Grid) NumTiles() int { return g.NX * g.NY }

// TileID returns the linear tile ID for (ix, iy).
func (g *Grid) TileID(ix, iy int) int { return iy*g.NX + ix }

// TileCoords inverts TileID.
func (g *Grid) TileCoords(id int) (ix, iy int) { return id % g.NX, id / g.NX }

// Tile returns the spatial extent of tile (ix, iy). Tiles are half-open in
// spirit (an object on a shared border is assigned to both tiles by
// intersection tests) but their extents as returned here are closed rects.
func (g *Grid) Tile(ix, iy int) geom.Rect {
	return geom.Rect{
		MinX: g.Space.MinX + float64(ix)*g.cellW,
		MinY: g.Space.MinY + float64(iy)*g.cellH,
		MaxX: g.Space.MinX + float64(ix+1)*g.cellW,
		MaxY: g.Space.MinY + float64(iy+1)*g.cellH,
	}
}

// TileMin returns the minimum corner of tile (ix, iy), which is all the
// two-layer classification needs.
func (g *Grid) TileMin(ix, iy int) geom.Point {
	return geom.Point{
		X: g.Space.MinX + float64(ix)*g.cellW,
		Y: g.Space.MinY + float64(iy)*g.cellH,
	}
}

// clamp returns the cell index of the fractional position v, restricted
// to [0, n-1]. It clamps before converting: int(v) of a value out of the
// int range (an infinite window edge, say) is undefined, and on amd64
// wraps to the minimum int.
func clamp(v float64, n int) int {
	if !(v > 0) { // NaN too
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// CellOf returns the tile coordinates containing point p, clamped to the
// grid so that points on (or beyond) the maximum border map to the last
// tile, mirroring the paper's O(1) tile location.
func (g *Grid) CellOf(p geom.Point) (ix, iy int) {
	ix = clamp((p.X-g.Space.MinX)*g.invW, g.NX)
	iy = clamp((p.Y-g.Space.MinY)*g.invH, g.NY)
	return ix, iy
}

// CoverRect returns the clamped tile coordinate range [ix0,ix1]x[iy0,iy1]
// of all tiles that intersect r. The range is never empty: callers must
// first check that r intersects g.Space if r may lie outside.
func (g *Grid) CoverRect(r geom.Rect) (ix0, iy0, ix1, iy1 int) {
	ix0, iy0 = g.CellOf(geom.Point{X: r.MinX, Y: r.MinY})
	ix1, iy1 = g.CellOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	return ix0, iy0, ix1, iy1
}

// CellW returns the tile width.
func (g *Grid) CellW() float64 { return g.cellW }

// CellH returns the tile height.
func (g *Grid) CellH() float64 { return g.cellH }

// InvCellW returns 1/CellW (precomputed for hot paths).
func (g *Grid) InvCellW() float64 { return g.invW }

// InvCellH returns 1/CellH.
func (g *Grid) InvCellH() float64 { return g.invH }
