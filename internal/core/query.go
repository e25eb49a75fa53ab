package core

import (
	"errors"
	"fmt"
	"unsafe"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Query is the unified range-query descriptor: one shape (window, disk,
// or arbitrary region), an optional exact-geometry refinement step, and
// an optional result limit. Search evaluates it through the same cover
// walks (windowScan, diskScan, regionScan) the streamed Window and Disk
// entry points of the comparator interface run.
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
// coordinates are not validated here: like Window and Disk, Search
// answers a NaN or inverted shape with an empty result.
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

// errExactNeedsDataset is returned by Search and SearchCount for exact
// queries on an index that was not built over a Dataset (New, Load).
var errExactNeedsDataset = errors.New("core: exact queries require an index built over a Dataset")

// Search evaluates q and streams every matching entry to fn, which
// returns false to stop early (tile-granular for every shape: the tile
// being scanned when fn stops is scanned to its end, its further matches
// dropped, and no further tile is read). Each matching object is
// delivered exactly once. Exact queries deliver the object's MBR
// alongside its ID, like filtering queries. It reports whether the evaluation ran to completion: false
// when fn stopped it or a Limit was reached.
func (ix *Index) Search(q Query, fn func(e spatial.Entry) bool) (complete bool, err error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	if q.Exact && ix.dataset == nil {
		return false, errExactNeedsDataset
	}
	// One sink for every shape: it folds fn's verdict and the Limit into
	// the stop flag the cover walks check per tile. Without a Limit,
	// remaining starts at 0 and never returns to it.
	stopped := false
	remaining := q.Limit
	sink := func(e spatial.Entry) {
		if !stopped {
			remaining--
			stopped = !fn(e) || remaining == 0
		}
	}
	rf := refiner{exact: q.Exact, mode: q.Mode}
	var tally Stats
	switch {
	case q.Window != nil:
		ix.windowScan(*q.Window, rf, sink, &stopped, &tally)
	case q.Disk != nil:
		ix.diskScan(q.Disk.Center, q.Disk.Radius, rf, sink, &stopped, &tally)
	default:
		ix.regionScan(unleaked(&q.Region), sink, &stopped, &tally)
	}
	ix.finish(&tally)
	return !stopped, nil
}

// unleaked returns *r hidden from escape analysis, which tells a Query's
// fields apart no more than it trusts a Region's methods not to keep
// their receiver: a leaking q.Region would move a caller's q.Window or
// q.Disk to the heap. Sound because Region's contract forbids keeping it.
func unleaked(r *Region) Region {
	p := uintptr(unsafe.Pointer(r))
	return **(**Region)(unsafe.Pointer(&p))
}

// SearchIDs evaluates q and returns the IDs of all matching objects,
// appending to buf (which may be nil).
func (ix *Index) SearchIDs(q Query, buf []spatial.ID) ([]spatial.ID, error) {
	if _, err := ix.Search(q, func(e spatial.Entry) bool { buf = append(buf, e.ID); return true }); err != nil {
		return nil, err
	}
	return buf, nil
}

// SearchCount evaluates q and returns the number of matching objects.
// A Limit caps the count like it caps streamed results. Plain windows
// and disks take the count-pushdown kernels — window counts run in
// O(tiles covered) on interior-dominated covers, and no per-entry
// callback is invoked; exact and Region counts stream through Search.
// A capped count equals min(total, Limit), which is exactly what the
// early-terminating streamed path reports.
func (ix *Index) SearchCount(q Query) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	n := 0
	switch {
	case q.Exact || q.Region != nil:
		if _, err := ix.Search(q, func(spatial.Entry) bool { n++; return true }); err != nil {
			return 0, err
		}
	case q.Window != nil:
		n = ix.WindowCount(*q.Window)
	default:
		n = ix.DiskCount(q.Disk.Center, q.Disk.Radius)
	}
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	return n, nil
}
