package twolayer

import (
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Query is the unified query descriptor of the public API: one shape
// (window, disk, or arbitrary region), an optional exact-geometry
// refinement step, and an optional result limit. It is the single input
// to Search, SearchIDs, and SearchCount, the only range-query entry
// points of every query surface — Index, Sharded, and the /v1 HTTP API
// share it.
//
//	ids, err := ix.SearchIDs(twolayer.Query{Window: &w}, nil)
//	n, err := ix.SearchCount(twolayer.Query{Disk: &twolayer.Disk{Center: c, Radius: r}})
type Query struct {
	// Exactly one of Window, Disk, and Region must be set.
	Window *Rect
	Disk   *Disk
	Region Region

	// Exact refines candidates against the exact object geometries
	// (requires BuildRects/BuildGeoms; unsupported for Region shapes).
	Exact bool
	// Mode selects the refinement strategy of an Exact query; the zero
	// value is RefineSimple, RefineAvoidPlus is the paper's recommended
	// default.
	Mode RefineMode
	// Limit > 0 stops the query after that many results (the query is
	// then reported incomplete); 0 means unlimited. Limit 1 is an
	// existence test: Search reports incomplete exactly when a match
	// exists.
	Limit int
}

func (q Query) toCore() core.Query {
	return core.Query{
		Window: q.Window,
		Disk:   q.Disk,
		Region: q.Region,
		Exact:  q.Exact,
		Mode:   q.Mode,
		Limit:  q.Limit,
	}
}

// Validate reports why the descriptor cannot be evaluated, or nil.
// Shape coordinates are not validated: a NaN or inverted shape yields an
// empty result.
func (q Query) Validate() error { return q.toCore().Validate() }

// Search evaluates q and streams every matching object to fn, which
// returns false to stop early (termination is tile-granular: no tile
// after the one being scanned is read). Each match is delivered exactly
// once; exact queries deliver the object's MBR alongside its ID like
// filtering queries do.
// It reports whether the query ran to completion — false when fn stopped
// it or Limit was reached — and a non-nil error only for an invalid
// descriptor (wrong shape count, negative limit, exact without
// geometries).
func (ix *Index) Search(q Query, fn func(id ID, mbr Rect) bool) (complete bool, err error) {
	return ix.core.Search(q.toCore(), func(e spatial.Entry) bool {
		return fn(e.ID, e.Rect)
	})
}

// SearchIDs evaluates q and returns the IDs of all matching objects,
// appending to buf (which may be nil).
func (ix *Index) SearchIDs(q Query, buf []ID) ([]ID, error) {
	return ix.core.SearchIDs(q.toCore(), buf)
}

// SearchCount evaluates q and returns the number of matching objects; a
// Limit caps the count like it caps streamed results.
func (ix *Index) SearchCount(q Query) (int, error) {
	return ix.core.SearchCount(q.toCore())
}
