package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Query is the unified range-query descriptor: one shape (window, disk,
// or arbitrary region), an optional exact-geometry refinement step, and
// an optional result limit. Search evaluates it through the same
// two-layer machinery the shape-specific entry points use; those entry
// points (Window, Disk, WindowExact, ...) are thin wrappers over Search.
//
// The zero Mode is RefineSimple; callers wanting the paper's recommended
// refinement set Mode to RefineAvoidPlus explicitly. Mode is ignored
// unless Exact is set.
type Query struct {
	// Exactly one of Window, Disk, and Region must be set.
	Window *geom.Rect
	Disk   *geom.Disk
	Region Region

	// Exact refines candidates against the exact object geometries; the
	// index must have been built over a Dataset. Unsupported for Region
	// shapes.
	Exact bool
	// Mode selects the refinement strategy of an Exact query.
	Mode RefineMode
	// Limit > 0 stops the query after that many results have been
	// delivered (the query is then reported as incomplete). 0 means
	// unlimited.
	Limit int
}

// Validate reports why the descriptor cannot be evaluated, or nil. Shape
// coordinates are not validated here: like the shape-specific entry
// points, Search answers a NaN or inverted shape with an empty result.
func (q Query) Validate() error {
	shapes := 0
	if q.Window != nil {
		shapes++
	}
	if q.Disk != nil {
		shapes++
	}
	if q.Region != nil {
		shapes++
	}
	if shapes != 1 {
		return fmt.Errorf("core: query must set exactly one of Window, Disk and Region (got %d)", shapes)
	}
	if q.Limit < 0 {
		return fmt.Errorf("core: negative query limit %d", q.Limit)
	}
	if q.Exact && q.Region != nil {
		return errors.New("core: exact refinement is not supported for Region queries")
	}
	return nil
}

// MBR returns the bounding rectangle of the query shape — the extent
// routing layers (internal/shard) use to pick the partitions to scan.
func (q Query) MBR() geom.Rect {
	switch {
	case q.Window != nil:
		return *q.Window
	case q.Disk != nil:
		return q.Disk.MBR()
	case q.Region != nil:
		return q.Region.MBR()
	}
	return geom.Rect{}
}

// errExactNeedsDataset is returned by Search for exact queries on an
// index that was not built over a Dataset; it mirrors the panic of the
// legacy WindowExact/DiskExact entry points.
var errExactNeedsDataset = errors.New("core: exact queries require an index built over a Dataset")

// Search evaluates q and streams every matching entry to fn, which
// returns false to stop early (tile-granular, like WindowUntil). Each
// matching object is delivered exactly once. Exact queries deliver the
// object's MBR alongside its ID, like filtering queries. It reports
// whether the evaluation ran to completion: false when fn stopped it or
// a Limit was reached.
func (ix *Index) Search(q Query, fn func(e spatial.Entry) bool) (complete bool, err error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	if q.Exact && ix.dataset == nil {
		return false, errExactNeedsDataset
	}
	remaining := q.Limit
	complete = true
	// deliver forwards one result and reports whether to keep going,
	// folding the Limit into the same early-termination path fn uses.
	deliver := func(e spatial.Entry) bool {
		if !fn(e) {
			complete = false
			return false
		}
		if q.Limit > 0 {
			if remaining--; remaining == 0 {
				complete = false
				return false
			}
		}
		return true
	}
	// The exact and region paths have no *Until variant; a stopped flag
	// turns their unconditional sinks into early-terminating ones.
	stopped := false
	sink := func(e spatial.Entry) {
		if !stopped && !deliver(e) {
			stopped = true
		}
	}
	switch {
	case q.Window != nil && q.Exact:
		ix.windowExactEntries(*q.Window, q.Mode, sink)
	case q.Window != nil:
		ix.WindowUntil(*q.Window, deliver)
	case q.Disk != nil && q.Exact:
		ix.diskExactEntries(q.Disk.Center, q.Disk.Radius, q.Mode, sink)
	case q.Disk != nil:
		ix.DiskUntil(q.Disk.Center, q.Disk.Radius, deliver)
	default:
		ix.Query(q.Region, sink)
	}
	return complete, nil
}

// searchIDCollector pools the append sink of SearchIDs; the closure is
// bound once at pool construction so the collection path stays at zero
// allocations per call (beyond slice growth).
type searchIDCollector struct {
	ids []spatial.ID
	fn  func(spatial.Entry) bool
}

var searchIDPool = sync.Pool{New: func() any {
	c := &searchIDCollector{}
	c.fn = func(e spatial.Entry) bool {
		c.ids = append(c.ids, e.ID)
		return true
	}
	return c
}}

// SearchIDs evaluates q and returns the IDs of all matching objects,
// appending to buf (which may be nil).
func (ix *Index) SearchIDs(q Query, buf []spatial.ID) ([]spatial.ID, error) {
	c := searchIDPool.Get().(*searchIDCollector)
	c.ids = buf
	_, err := ix.Search(q, c.fn)
	out := c.ids
	c.ids = nil
	searchIDPool.Put(c)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchCount evaluates q and returns the number of matching objects.
// A Limit caps the count like it caps streamed results. Plain (non-
// exact) shapes take the count-pushdown kernels — window counts run in
// O(tiles covered) on interior-dominated covers, and no per-entry
// callback is invoked — so counting is substantially cheaper than
// streaming the same query. A capped count equals min(total, Limit),
// which is exactly what the early-terminating streamed path reports.
func (ix *Index) SearchCount(q Query) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !q.Exact {
		var n int
		switch {
		case q.Window != nil:
			n = ix.WindowCountFast(*q.Window)
		case q.Disk != nil:
			n = ix.DiskCount(q.Disk.Center, q.Disk.Radius)
		default:
			n = ix.QueryCount(q.Region)
		}
		if q.Limit > 0 && n > q.Limit {
			n = q.Limit
		}
		return n, nil
	}
	n := 0
	_, err := ix.Search(q, func(spatial.Entry) bool {
		n++
		return true
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
