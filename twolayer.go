package twolayer

import (
	"fmt"
	"io"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Geometric types of the public API.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-parallel rectangle (an object MBR or a query
	// window).
	Rect = geom.Rect
	// Disk is a circular query range.
	Disk = geom.Disk
	// LineString is a polyline geometry.
	LineString = geom.LineString
	// Polygon is a simple polygon geometry.
	Polygon = geom.Polygon
	// Geometry is the interface exact object representations implement.
	Geometry = geom.Geometry
	// ID identifies an object; a dataset of n objects uses IDs 0..n-1.
	ID = spatial.ID
	// Stats carries the counters of the work queries did (see
	// Index.Instrumented).
	Stats = core.Stats
	// AtomicStats merges per-query Stats concurrently (see
	// Index.Instrumented).
	AtomicStats = core.AtomicStats
	// Trace is a per-query observability record: the Stats counters plus
	// wall-clock stage timings (see Index.Traced).
	Trace = core.Trace
	// PathStats snapshots the always-on adaptive query-execution counters
	// (see Index.QueryPathStats and Sharded.QueryPathStats).
	PathStats = core.PathStats
	// PartitionStats summarizes the shape of the two-layer partitioning
	// (see Index.PartitionStats).
	PartitionStats = core.PartitionStats
	// Neighbor is one k-nearest-neighbor result.
	Neighbor = core.Neighbor
	// Region is an arbitrary-shape query range (Disk and *Polygon
	// implement it).
	Region = core.Region
)

// NewLineString constructs a polyline from at least two points.
func NewLineString(pts ...Point) *LineString { return geom.NewLineString(pts...) }

// NewPolygon constructs a simple polygon from at least three vertices.
func NewPolygon(ring ...Point) *Polygon { return geom.NewPolygon(ring...) }

// RefineMode selects how exact-geometry queries refine candidates.
type RefineMode = core.RefineMode

// Refinement modes for exact queries (Query.Exact, Query.Mode).
const (
	// RefineSimple refines every candidate with an exact geometry test.
	RefineSimple = core.RefineSimple
	// RefineAvoid applies the MBR secondary filter first (Lemma 5),
	// skipping refinement for candidates it proves are results.
	RefineAvoid = core.RefineAvoid
	// RefineAvoidPlus additionally uses class knowledge to shrink the
	// secondary filter itself. The recommended default.
	RefineAvoidPlus = core.RefineAvoidPlus
)

// BatchStrategy selects how query batches are evaluated.
type BatchStrategy = core.BatchStrategy

// Batch strategies for BatchWindow.
const (
	// QueriesBased evaluates queries independently (cache agnostic).
	QueriesBased = core.QueriesBased
	// TilesBased groups work per tile for cache locality. It pays on
	// large, dense batches (EXPERIMENTS.md, Figures 10 and 11).
	TilesBased = core.TilesBased
)

// Options configure index construction.
type Options struct {
	// GridSize is the number of tiles per dimension. When zero (and NX,
	// NY are zero), BuildRects and BuildGeoms auto-tune it from the data
	// size (~1 object per tile, the paper's broad optimum); New defaults
	// to 256. For a non-square grid set NX and NY instead.
	GridSize int
	// NX, NY override GridSize per dimension.
	NX, NY int
	// Space is the indexed region. Defaults to the bounding rectangle of
	// the data (objects may still stick out; border tiles absorb them).
	Space Rect
	// Decompose builds the sorted coordinate tables of the 2-layer+
	// variant (Sec. IV-C) for static data: more memory and a slower
	// build (Fig. 7) for fewer coordinate comparisons on border tiles. It
	// is not a speedup at this repository's default workload: Table V
	// measured 2-layer+ at 0.88x of plain 2-layer's throughput on ROADS
	// and 0.94x on EDGES (EXPERIMENTS.md). The first Insert or Delete
	// drops the tables; RebuildDecomposed builds them again.
	Decompose bool
	// BuildThreads is the worker count of the construction pipeline:
	// <= 0 selects DefaultThreads(), 1 forces the classic sequential
	// build. With more than one worker, construction runs a two-pass
	// counting pipeline that shards the input across cores and fills
	// exact-size partitions in parallel — the resulting index contents
	// are identical to a sequential build. Small datasets (and very
	// large grids) fall back to the sequential path automatically; see
	// docs "Build performance" for the scaling profile. The setting also
	// parallelizes 2-layer+ decomposed-table builds.
	BuildThreads int
}

// Validate reports why the options cannot build an index, or nil.
// BuildRects, BuildGeoms, and New panic on invalid options; the Err build
// variants and NewLive validate first and return the error instead.
func (o Options) Validate() error {
	if o.GridSize < 0 {
		return fmt.Errorf("twolayer: negative GridSize %d", o.GridSize)
	}
	return o.toCore().Validate()
}

func (o Options) toCore() core.Options {
	nx, ny := o.NX, o.NY
	if nx == 0 {
		nx = o.GridSize
	}
	if ny == 0 {
		ny = o.GridSize
	}
	return core.Options{
		NX: nx, NY: ny, Space: o.Space,
		Decompose:    o.Decompose,
		BuildThreads: o.BuildThreads,
	}
}

// Index is a two-layer partitioned spatial index. It is safe for
// concurrent readers, kNN included; updates require external
// synchronization. Instrumented collects stats by giving each goroutine
// its own cheap read view. For concurrent readers AND
// writers, wrap the index in a Live handle (NewLive, LiveFrom): readers
// then pin immutable copy-on-write snapshots instead of locking.
type Index struct {
	core    *core.Index
	dataset *spatial.Dataset
}

// BuildRects builds an index over rectangle objects. Object i gets ID i.
func BuildRects(rects []Rect, opts Options) *Index {
	d := spatial.NewDataset(rects)
	return &Index{core: core.Build(d, opts.autoTuned(d.Len())), dataset: d}
}

// BuildGeoms builds an index over exact geometries (indexed by their
// MBRs). Object i gets ID i.
func BuildGeoms(geoms []Geometry, opts Options) *Index {
	d := spatial.NewGeomDataset(geoms)
	return &Index{core: core.Build(d, opts.autoTuned(d.Len())), dataset: d}
}

// BuildRectsErr is the error-returning variant of BuildRects: invalid
// options or data (inverted rectangles or ones with a NaN or infinite
// coordinate, a degenerate bounding box with no explicit Space) produce
// an error instead of a panic.
func BuildRectsErr(rects []Rect, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := spatial.NewDataset(rects)
	inner, err := core.BuildErr(d, opts.autoTuned(d.Len()))
	if err != nil {
		return nil, err
	}
	return &Index{core: inner, dataset: d}, nil
}

// BuildGeomsErr is the error-returning variant of BuildGeoms.
func BuildGeomsErr(geoms []Geometry, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := spatial.NewGeomDataset(geoms)
	inner, err := core.BuildErr(d, opts.autoTuned(d.Len()))
	if err != nil {
		return nil, err
	}
	return &Index{core: inner, dataset: d}, nil
}

// autoTuned fills in a data-driven grid size when none was requested.
func (o Options) autoTuned(n int) core.Options {
	if o.GridSize == 0 && o.NX == 0 && o.NY == 0 {
		o.GridSize = core.SuggestGridSize(n)
	}
	return o.toCore()
}

// New returns an empty, updatable index over the given space. Options.
// Space must be set (there is no data to derive it from).
func New(opts Options) *Index {
	return &Index{core: core.New(opts.toCore())}
}

// Len returns the number of objects in the index.
func (ix *Index) Len() int { return ix.core.Len() }

// Epoch returns the snapshot epoch of the index: 0 for a directly built
// index, and the strictly increasing publish sequence number for
// snapshots obtained from Live.Snapshot.
func (ix *Index) Epoch() uint64 { return ix.core.Epoch() }

// DefaultThreads is the worker count every "<= 0" thread or shard
// parameter of this package resolves to: runtime.GOMAXPROCS(0).
func DefaultThreads() int { return core.DefaultThreads() }

// BatchWindow evaluates a batch of window queries; fn receives the query
// index with each result and must be safe for concurrent use when
// threads != 1. threads <= 0 uses DefaultThreads().
func (ix *Index) BatchWindow(queries []Rect, strategy BatchStrategy, threads int, fn func(q int, id ID)) {
	ix.core.BatchWindow(queries, strategy, threads, func(q int, e spatial.Entry) { fn(q, e.ID) })
}

// BatchWindowCounts evaluates a batch and returns per-query result
// counts, through the count pushdown (no per-result callback runs), on
// an instrumented view as on the index: the view's Stats receive the
// batch's counters once it ends.
func (ix *Index) BatchWindowCounts(queries []Rect, strategy BatchStrategy, threads int) []int {
	return ix.core.BatchWindowCounts(queries, strategy, threads)
}

// BatchDisk evaluates a batch of disk queries; fn receives the query
// index with each result and must be safe for concurrent use when
// threads != 1.
func (ix *Index) BatchDisk(queries []Disk, strategy BatchStrategy, threads int, fn func(q int, id ID)) {
	ix.core.BatchDisk(queries, strategy, threads, func(q int, e spatial.Entry) { fn(q, e.ID) })
}

// BatchDiskCounts evaluates a disk batch and returns per-query counts,
// through the disk count kernel, like BatchWindowCounts.
func (ix *Index) BatchDiskCounts(queries []Disk, strategy BatchStrategy, threads int) []int {
	return ix.core.BatchDiskCounts(queries, strategy, threads)
}

// Insert adds an object with the given ID and MBR. Exact geometries
// cannot be attached after construction; indices built with New support
// MBR (filtering) queries only. An inverted MBR, or one with a NaN or
// infinite coordinate, panics.
func (ix *Index) Insert(id ID, mbr Rect) {
	ix.core.Insert(spatial.Entry{Rect: mbr, ID: id})
}

// Delete removes the object with the given ID, which must be passed the
// exact MBR it was inserted with. It reports whether the object was
// found; with any other MBR it reports false and leaves the object
// indexed.
func (ix *Index) Delete(id ID, mbr Rect) bool { return ix.core.Delete(id, mbr) }

// RebuildDecomposed builds the 2-layer+ decomposed tables over the
// current contents. An index holds them from a build with
// Options.Decompose until its first Insert or Delete, which drops them
// whole; this builds them again.
func (ix *Index) RebuildDecomposed() { ix.core.BuildDecomposed() }

// Decomposed reports whether the index currently holds 2-layer+ tables.
func (ix *Index) Decomposed() bool { return ix.core.Decomposed() }

// KNN returns the k objects whose MBRs are nearest to q, ascending by
// distance. It keeps no state on the index — each object is considered
// only in the tile of its MBR nearest to q — so it is safe for
// concurrent readers like every other query.
func (ix *Index) KNN(q Point, k int) []Neighbor { return ix.core.KNN(q, k) }

// KNNExact returns the k objects whose exact geometries are nearest to q,
// ascending by true geometric distance. Requires an index built with
// BuildGeoms or BuildRects.
func (ix *Index) KNNExact(q Point, k int) []Neighbor { return ix.core.KNNExact(q, k) }

// Join computes the spatial intersection join with another index built
// over the same grid geometry (same GridSize/NX/NY and Space): fn is
// invoked exactly once for every pair of objects whose MBRs intersect,
// with no duplicate pairs. Incompatible grids and a self-join are
// reported as an error (ErrGridMismatch, ErrSelfJoin) before any pair is
// delivered.
func (ix *Index) Join(other *Index, fn func(rID, sID ID)) error {
	if err := core.Joinable(ix.core, other.core); err != nil {
		return err
	}
	ix.core.Join(other.core, func(r, s spatial.Entry) { fn(r.ID, s.ID) })
	return nil
}

// Join precondition errors, returned by Join, JoinParallel and
// JoinCount.
var (
	// ErrGridMismatch means the two indices were built over different
	// grid geometries (tile counts or space).
	ErrGridMismatch = core.ErrGridMismatch
	// ErrSelfJoin means both join operands are the same Index instance;
	// build a second index over the same data instead.
	ErrSelfJoin = core.ErrSelfJoin
)

// JoinCount returns the number of intersecting pairs between the two
// indices, or Join's precondition error.
func (ix *Index) JoinCount(other *Index) (int, error) {
	if err := core.Joinable(ix.core, other.core); err != nil {
		return 0, err
	}
	return ix.core.JoinCount(other.core), nil
}

// QueryPathStats snapshots the always-on adaptive query-execution
// counters: how often count-only queries took the O(tiles) pushdown
// kernel and how many tiles and entries were answered in bulk with zero
// comparisons. Counters are cumulative over the index
// lifetime and shared with all read views and Live snapshots of the
// same engine.
func (ix *Index) QueryPathStats() PathStats { return ix.core.QueryPathStats() }

// JoinParallel runs the spatial join with tiles distributed over
// threads; fn must be safe for concurrent use. It returns Join's
// precondition errors.
func (ix *Index) JoinParallel(other *Index, threads int, fn func(rID, sID ID)) error {
	if err := core.Joinable(ix.core, other.core); err != nil {
		return err
	}
	ix.core.JoinParallel(other.core, threads, func(r, s spatial.Entry) { fn(r.ID, s.ID) })
	return nil
}

// EstimateWindow predicts the result cardinality of a window query from
// the grid's per-tile counts in O(tiles covered) time, without touching
// entries. It assumes uniform mass within each tile, and because objects
// larger than a tile contribute through their class-A (reference) tile
// only, it undercounts heavily replicated data — treat it as a
// lower-bound-flavoured planning signal, not a count. The query planner
// itself consults the same estimate when cost-gating intra-query
// parallelism, and the /v1 HTTP API exposes it via "estimate": true, so
// clients and the planner share one selectivity signal.
func (ix *Index) EstimateWindow(w Rect) float64 { return ix.core.EstimateWindow(w) }

// Save writes a compact binary snapshot of the built index structure, so
// a static index can later be loaded without re-partitioning. Exact
// geometries are not part of the snapshot; a loaded index answers all
// MBR (filtering) queries.
func (ix *Index) Save(w io.Writer) (int64, error) { return ix.core.WriteTo(w) }

// Load reads an index snapshot written by Save.
func Load(r io.Reader) (*Index, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Index{core: inner}, nil
}

// ReadView returns ix itself: every query, KNN and KNNExact included, is
// safe for concurrent readers of an index that is not being updated, so
// a plain read needs no view of its own.
func (ix *Index) ReadView() *Index { return ix }

// Instrumented returns a shallow read view of the index whose queries,
// batches included, add their counters to the returned private Stats
// when they end (concurrent mode: any number of instrumented views may
// run at once). The view runs exactly the kernels ix runs — the count
// pushdown stays the count pushdown — because every query counts its
// work anyway; the view only keeps the total. Merge the counters of
// finished views into a shared AtomicStats with its Observe method.
func (ix *Index) Instrumented() (*Index, *Stats) {
	v := &struct {
		ix Index
		s  Stats
	}{}
	v.ix = Index{core: ix.core.View(&v.s), dataset: ix.dataset}
	return &v.ix, &v.s
}

// Traced returns a read view like Instrumented whose queries additionally
// record per-stage wall-clock timings into the returned private Trace:
// the embedded Stats counters plus the split between filtering and
// exact-geometry refinement time. Stamp the total with Trace.Finish when
// the query (or request) completes. Any number of traced views may run
// concurrently, each with its own Trace; reuse a view/Trace pair across
// sequential queries by calling Trace.Reset between them.
func (ix *Index) Traced() (*Index, *Trace) {
	v := &struct {
		ix Index
		tr Trace
	}{}
	v.ix = Index{core: ix.core.ViewTraced(&v.tr), dataset: ix.dataset}
	return &v.ix, &v.tr
}

// PartitionStats walks the tile directory once and summarizes the current
// partitioning: occupied tiles, per-class entry counts, replication
// factor, tile-occupancy skew. Safe to call concurrently with queries on
// a static index or a Live snapshot.
func (ix *Index) PartitionStats() PartitionStats { return ix.core.PartitionStats() }

// HasExactGeometries reports whether the index can answer exact-geometry
// queries (Query.Exact, KNNExact): true for indices built with
// BuildRects or BuildGeoms, false for empty (New) or snapshot-loaded
// (Load) indices.
func (ix *Index) HasExactGeometries() bool { return ix.core.Dataset() != nil }

// GridDims returns the primary grid's tile counts per dimension.
func (ix *Index) GridDims() (nx, ny int) {
	g := ix.core.Grid()
	return g.NX, g.NY
}

// Space returns the indexed region (the extent the primary grid covers).
// Two indices are join-compatible when they share GridDims and Space.
func (ix *Index) Space() Rect { return ix.core.Grid().Space }

// ReplicationFactor reports stored entries (with replicas) per object.
func (ix *Index) ReplicationFactor() float64 { return ix.core.ReplicationFactor() }

// MemoryFootprint approximates the index's data size in bytes: stored
// entries with their replicas, the tile directory, and the count prefix
// and 2-layer+ tables when the index holds them.
func (ix *Index) MemoryFootprint() int { return ix.core.MemoryFootprint() }
