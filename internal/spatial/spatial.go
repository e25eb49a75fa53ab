// Package spatial defines the data model shared by every index in the
// library: the (MBR, object-id) pair that indices manage during the
// filtering step, the dataset abstraction that couples MBRs with exact
// geometries, and brute-force reference implementations of the supported
// queries used as ground truth in tests.
package spatial

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/twolayer/twolayer/internal/geom"
)

// ID identifies an object in a dataset. IDs are dense: a dataset with n
// objects uses IDs 0..n-1, which lets indices use plain slices as
// id-addressed side tables.
type ID = uint32

// Entry is an (MBR, object-id) pair, the unit stored in every index's
// filtering structure. The exact geometry of the object is stored once in
// the owning Dataset and fetched on demand by ID during refinement.
type Entry struct {
	Rect geom.Rect
	ID   ID
}

// Dataset couples the MBR table with the (optional) exact geometries.
// Entries[i].ID == i holds after normalization; indices rely on it.
type Dataset struct {
	Entries []Entry
	// Geoms holds the exact geometry per ID. It may be nil for
	// rectangle-only workloads (the MBR is the geometry).
	Geoms []geom.Geometry
}

// NewDataset builds a dataset from MBRs only (rectangle objects).
func NewDataset(rects []geom.Rect) *Dataset {
	entries := make([]Entry, len(rects))
	for i, r := range rects {
		entries[i] = Entry{Rect: r, ID: ID(i)}
	}
	return &Dataset{Entries: entries}
}

// mbrShard is the fewest geometries a worker of NewGeomDataset takes:
// fewer walk their vertices faster than a goroutine starts.
const mbrShard = 1 << 12

// NewGeomDataset builds a dataset from exact geometries, deriving MBRs.
// Up to GOMAXPROCS workers walk the vertices, the caller among them,
// each over a contiguous range of geometries.
func NewGeomDataset(geoms []geom.Geometry) *Dataset {
	entries := make([]Entry, len(geoms))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			entries[i] = Entry{Rect: geoms[i].MBR(), ID: ID(i)}
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(geoms)/mbrShard))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(len(geoms)*w/workers, len(geoms)*(w+1)/workers)
		}()
	}
	fill(0, len(geoms)/workers)
	wg.Wait()
	return &Dataset{Entries: entries, Geoms: geoms}
}

// Geom returns the exact geometry for id, falling back to the MBR when no
// exact geometries are stored.
func (d *Dataset) Geom(id ID) geom.Geometry {
	if d.Geoms != nil {
		return d.Geoms[id]
	}
	return geom.RectGeometry(d.Entries[id].Rect)
}

// Len returns the number of objects.
func (d *Dataset) Len() int { return len(d.Entries) }

// MBR returns the minimum bounding rectangle of all entries, or the unit
// square for an empty dataset.
func (d *Dataset) MBR() geom.Rect {
	if len(d.Entries) == 0 {
		return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	mbr := d.Entries[0].Rect
	for _, e := range d.Entries[1:] {
		mbr = mbr.Union(e.Rect)
	}
	return mbr
}

// Validate checks the dense-ID invariant.
func (d *Dataset) Validate() error {
	for i, e := range d.Entries {
		if e.ID != ID(i) {
			return fmt.Errorf("spatial: entry %d has ID %d, want dense IDs", i, e.ID)
		}
		if !e.Rect.Valid() || !e.Rect.Finite() {
			return fmt.Errorf("spatial: entry %d has invalid rect %v", i, e.Rect)
		}
	}
	if d.Geoms != nil && len(d.Geoms) != len(d.Entries) {
		return fmt.Errorf("spatial: %d geometries for %d entries", len(d.Geoms), len(d.Entries))
	}
	return nil
}

// BruteWindow returns the IDs of all entries whose MBR intersects w, by
// exhaustive scan. Reference implementation for tests.
func BruteWindow(entries []Entry, w geom.Rect) []ID {
	var out []ID
	for _, e := range entries {
		if e.Rect.Intersects(w) {
			out = append(out, e.ID)
		}
	}
	return out
}

// BruteDisk returns the IDs of all entries whose MBR intersects the disk
// (center, radius), by exhaustive scan. Reference implementation for tests.
func BruteDisk(entries []Entry, center geom.Point, radius float64) []ID {
	var out []ID
	for _, e := range entries {
		if e.Rect.IntersectsDisk(center, radius) {
			out = append(out, e.ID)
		}
	}
	return out
}

// BruteWindowExact returns the IDs of all objects whose exact geometry
// intersects w.
func BruteWindowExact(d *Dataset, w geom.Rect) []ID {
	var out []ID
	for _, e := range d.Entries {
		if e.Rect.Intersects(w) && d.Geom(e.ID).IntersectsRect(w) {
			out = append(out, e.ID)
		}
	}
	return out
}

// BruteDiskExact returns the IDs of all objects whose exact geometry
// intersects the disk (center, radius).
func BruteDiskExact(d *Dataset, center geom.Point, radius float64) []ID {
	var out []ID
	for _, e := range d.Entries {
		if e.Rect.IntersectsDisk(center, radius) && d.Geom(e.ID).IntersectsDisk(center, radius) {
			out = append(out, e.ID)
		}
	}
	return out
}
