// Package core implements the paper's primary contribution: a two-layer
// spatial partitioning index for non-point objects.
//
// The primary layer is a regular grid (space-oriented partitioning). An
// object MBR is replicated into every tile it intersects. The secondary
// layer divides the MBRs assigned to each tile into four classes:
//
//	A — the MBR begins inside the tile in both dimensions,
//	B — begins inside the tile in x, before the tile in y,
//	C — begins before the tile in x, inside the tile in y,
//	D — begins before the tile in both dimensions.
//
// During range query evaluation, each intersected tile is scanned only in
// the classes that cannot yield duplicate results (Lemmas 1 and 2 of the
// paper), so duplicates are never generated and never need elimination.
// Tiles on the border of the query need at most one comparison per
// dimension per rectangle (Lemmas 3 and 4); interior tiles need none.
//
// The optional decomposed storage ("2-layer+", Section IV-C of the paper)
// keeps per-class sorted coordinate tables so border tiles are answered
// with binary search instead of per-rectangle comparisons. It is one
// read-only side table per index (decomposed.go), never part of a tile:
// built for static data, and dropped whole by the first write.
package core

import (
	"fmt"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/grid"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Class identifies one of the four secondary partitions of a tile.
type Class uint8

// The four object classes of the secondary partitioning.
const (
	ClassA Class = iota // begins inside the tile in x and y
	ClassB              // begins inside in x, before in y
	ClassC              // begins before in x, inside in y
	ClassD              // begins before the tile in both dimensions
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassA:
		return "A"
	case ClassB:
		return "B"
	case ClassC:
		return "C"
	case ClassD:
		return "D"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Options configure index construction.
type Options struct {
	// NX, NY are the number of tiles per dimension. Both default to 256.
	NX, NY int
	// Space is the indexed region. Objects may stick out of it; they are
	// clamped into the border tiles. Defaults to the unit square.
	Space geom.Rect
	// Decompose additionally builds the sorted per-class coordinate
	// tables of Section IV-C ("2-layer+"), which trade memory and build
	// time for fewer comparisons on query borders. The first Insert or
	// Delete drops them; only BuildDecomposed builds them again.
	Decompose bool
	// BuildThreads is the worker count of the construction pipeline used
	// by Build and BuildDecomposed: <= 0 selects DefaultThreads(), 1
	// forces the sequential single-threaded path. With more than one
	// worker, Build uses a two-pass counting pipeline (count replicas
	// per tile and class, then fill exact-size class slices in parallel)
	// that yields partition contents identical to the sequential path.
	// Small datasets and grids larger than the counting-array budget
	// fall back to the sequential path regardless of the setting. The
	// value also parallelizes decomposed-table builds.
	BuildThreads int
	// SparseDirectory forces the hash-map tile directory. By default the
	// index uses a dense directory when NX*NY <= DenseDirectoryLimit.
	SparseDirectory bool
	// DenseDirectoryLimit overrides the dense-directory cutoff
	// (default 1<<25 tiles, a 128 MB directory).
	DenseDirectoryLimit int
}

// DefaultDenseDirectoryLimit is the largest tile count for which a dense
// tile directory is used by default.
const DefaultDenseDirectoryLimit = 1 << 25

// SuggestGridSize returns a grid granularity (tiles per dimension) for a
// dataset of n objects, targeting roughly one object per tile — the
// per-tile density regime the paper's tuning experiments (Figure 7)
// identify as a broad optimum. The result is a power of two in
// [64, 4096].
func SuggestGridSize(n int) int {
	g := 64
	for g*g < n && g < 4096 {
		g *= 2
	}
	return g
}

// Validate reports why the options cannot build an index, or nil. Build
// and New panic on invalid options (via the grid constructor); callers
// that prefer errors validate first or use BuildErr.
func (o Options) Validate() error {
	if o.NX < 0 || o.NY < 0 {
		return fmt.Errorf("core: negative grid dimensions %dx%d", o.NX, o.NY)
	}
	if o.DenseDirectoryLimit < 0 {
		return fmt.Errorf("core: negative DenseDirectoryLimit %d", o.DenseDirectoryLimit)
	}
	if o.Space != (geom.Rect{}) {
		if !o.Space.Valid() || o.Space.Width() <= 0 || o.Space.Height() <= 0 {
			return fmt.Errorf("core: degenerate space %v", o.Space)
		}
	}
	return nil
}

// Resolved returns the options with every defaulted field filled in —
// the exact configuration New would build with. Layout computations that
// must agree with the grid (the shard engine derives per-shard column
// slabs from the global grid) start from the resolved options.
func (o Options) Resolved() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.NX == 0 {
		o.NX = 256
	}
	if o.NY == 0 {
		o.NY = 256
	}
	if o.Space == (geom.Rect{}) {
		o.Space = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	if o.DenseDirectoryLimit == 0 {
		o.DenseDirectoryLimit = DefaultDenseDirectoryLimit
	}
	return o
}

// tile is one primary partition with its four secondary partitions.
// Tiles are populated either by the sequential insert loop or by the
// parallel two-pass build (see buildparallel.go); the two paths produce
// identical class contents and differ only in the slot order of the tile
// pool.
type tile struct {
	classes [4][]spatial.Entry
	// epoch is the copy-on-write generation that privately owns the class
	// slices — the second level of sharing, below the tile page (see
	// pagetable.go): copying a page copies this header, slice headers
	// included, but the entry storage behind them stays shared until a
	// mutation finds epoch different from the index epoch and clones the
	// slices (ownTile). Directly built indices — sequential or parallel —
	// stay at epoch 0 throughout, so the check never copies anything on
	// the non-MVCC path.
	epoch uint64
}

func (t *tile) size() int {
	return len(t.classes[0]) + len(t.classes[1]) + len(t.classes[2]) + len(t.classes[3])
}

// Index is the two-layer grid index. It is safe for concurrent readers,
// kNN included; updates require external synchronization. Use View to
// obtain per-goroutine read views that carry the Stats counters.
type Index struct {
	g    *grid.Grid
	opts Options

	// Tile table and tile directory, both paged for copy-on-write (see
	// pagetable.go). Slots number the tiles in allocation order; exactly
	// one of dense/sparse is used, both keyed by tile ID >> dirPageShift.
	pages    []*tilePage        // slot >> tilePageShift -> page
	numTiles int                // slots in use (the tail page may be partial)
	dense    []*dirPage         // every page present
	sparse   map[int32]*dirPage // pages with at least one tile

	dataset *spatial.Dataset // for refinement; may be nil
	size    int              // number of distinct objects inserted

	// epoch is the copy-on-write generation of this index: 0 for a
	// directly built index, the publish sequence number for snapshots
	// descending from CloneCOW (see Live).
	epoch uint64
	// sharedDir marks the directory's page references (the dense slice or
	// the sparse map itself, not the pages) as shared with an older
	// snapshot; unshareDir copies them before the first tile allocation
	// (existing-tile lookups never write the directory).
	sharedDir bool
	// published marks a Live snapshot and its views, which readers share:
	// Insert, Delete and BuildDecomposed panic on it; CloneCOW unmarks.
	published bool

	// stats, when non-nil, receives the counters of every finished query
	// (finish), unsynchronized. Only View and ViewTraced set it, on the
	// private copy they return.
	stats *Stats

	// trace, when non-nil, adds the refinement-stage wall-clock timer to
	// a view's queries. It is only ever set on private views (ViewTraced)
	// and always aliases the Trace whose embedded Stats this index's
	// stats field points to.
	trace *Trace

	// met accumulates the always-on adaptive-kernel counters (PathStats).
	// Allocated by New and shared by pointer with every View and CloneCOW
	// snapshot, so the counters are engine-lifetime totals.
	met *pathMetrics

	// counts and dec are the derived read tables: the class-A prefix-sum
	// table of the count pushdown (countindex.go) and the 2-layer+ side
	// table (decomposed.go). Both follow one rule: Build, Load and
	// BuildDecomposed make them, they are immutable once set, views and
	// copy-on-write clones share them by pointer, and the first Insert
	// or successful Delete drops them with a nil store into its own copy
	// of the field.
	counts *countIndex
	dec    *decIndex
}

// View returns a shallow read view of the index: it shares all partition
// storage with ix but owns its Stats slot (set to s, which may be nil),
// to which every query on the view, batches included, adds its counters
// when it ends. The view runs exactly the kernels ix runs. Any number of
// views can evaluate queries concurrently, as long as no goroutine
// updates the underlying index. Views are read-only: writing through one
// corrupts the shared state (a Live snapshot's view panics).
//
// A view costs one small allocation, so creating one per request (or per
// worker) is cheap. Merge per-view counters with AtomicStats.Observe.
func (ix *Index) View(s *Stats) *Index {
	cp := *ix
	cp.stats = s
	cp.trace = nil
	return &cp
}

// finish ends a query (or a batch): it adds the query's tally to the
// Stats of the view it ran on, if any, and the tally's count-pushdown
// counters to the engine-lifetime PathStats.
func (ix *Index) finish(tally *Stats) {
	if ix.stats != nil {
		ix.stats.Add(tally)
	}
	ix.met.flush(tally)
}

// Epoch returns the copy-on-write generation of the index: 0 for a
// directly built index, and a strictly increasing publish sequence number
// for snapshots obtained from a Live index.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// SetEpoch overrides the copy-on-write generation. It exists for crash
// recovery (internal/wal): after replaying write-ahead-log batches onto a
// checkpoint-loaded index, the index's epoch must equal the epoch of the
// last replayed batch so that new publishes continue the logged sequence
// instead of reusing epochs already on disk. Raising the epoch is always
// safe (tiles cloned lazily on the next mutation); it must not be called
// on an index shared with concurrent readers.
func (ix *Index) SetEpoch(e uint64) { ix.epoch = e }

// CloneCOW returns a writable copy of the index for the next epoch, while
// ix remains a consistent immutable snapshot that concurrent readers may
// keep querying. The copy shares every tile page, directory page, class
// slice and derived read table with ix; the only thing copied here is
// the slice of tile-page references (8 bytes per tilePageSize tiles).
// Insert and Delete on the copy then take ownership of what they write,
// on first touch: the tile's page, the tile's class slices, and — only
// when a previously empty tile is populated — the directory's page
// references and the one directory page written. A publish therefore
// costs O(pages the batch touched), independent of the number of tiles
// and grid cells (see pagetable.go for the ownership rule).
// BuildDecomposed on the copy writes no page: it only replaces the
// copy's read tables.
func (ix *Index) CloneCOW() *Index {
	cp := *ix
	cp.epoch++
	cp.pages = append(make([]*tilePage, 0, len(ix.pages)+1), ix.pages...)
	cp.sharedDir = true
	cp.published = false
	cp.stats = nil
	cp.trace = nil
	return &cp
}

// New builds an empty two-layer index.
func New(opts Options) *Index {
	opts = opts.withDefaults()
	ix := &Index{
		g:    grid.New(opts.Space, opts.NX, opts.NY),
		opts: opts,
		met:  &pathMetrics{},
	}
	if !opts.SparseDirectory && opts.NX*opts.NY <= opts.DenseDirectoryLimit {
		ix.dense = newDenseDir(opts.NX*opts.NY, 0)
	} else {
		ix.sparse = make(map[int32]*dirPage)
	}
	return ix
}

// Build constructs the index over a dataset, keeping a reference to it
// for the refinement step. Construction runs the parallel two-pass
// pipeline when Options.BuildThreads resolves to more than one worker
// (and the workload is large enough to profit), and the classic
// sequential insert loop otherwise; both produce the same partition
// contents, and either way the index is a directly built one — it stays
// at epoch 0, so later mutations never pay a copy-on-write clone until
// the index is wrapped in a Live handle.
func Build(d *spatial.Dataset, opts Options) *Index {
	if opts.Space == (geom.Rect{}) {
		opts.Space = d.MBR()
	}
	ix := New(opts)
	ix.dataset = d
	ix.bulkLoad(d.Entries)
	ix.buildReadTables()
	return ix
}

// BuildErr is the error-returning variant of Build: invalid options, an
// inconsistent dataset (an inverted MBR, or one with a NaN or infinite
// coordinate, included), or a space that cannot be derived from the
// data produce an error instead of a panic.
func BuildErr(d *spatial.Dataset, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.Space == (geom.Rect{}) {
		space := d.MBR()
		if !space.Valid() || space.Width() <= 0 || space.Height() <= 0 {
			return nil, fmt.Errorf(
				"core: data bounding box %v is degenerate; set Options.Space", space)
		}
		opts.Space = space
	}
	return Build(d, opts), nil
}

// Grid exposes the primary partitioning (read-only).
func (ix *Index) Grid() *grid.Grid { return ix.g }

// Len returns the number of distinct objects in the index.
func (ix *Index) Len() int { return ix.size }

// ForEach visits every distinct entry exactly once, in unspecified
// order. Each object has exactly one class-A copy — the one in its
// reference tile (the tile its clamped bottom-left corner falls in) —
// so scanning the A lists enumerates the index without deduplication.
func (ix *Index) ForEach(fn func(e spatial.Entry)) {
	for slot := 0; slot < ix.numTiles; slot++ {
		for _, e := range ix.tile(slot).classes[ClassA] {
			fn(e)
		}
	}
}

// Dataset returns the dataset the index was built over, or nil.
func (ix *Index) Dataset() *spatial.Dataset { return ix.dataset }

// SetDataset replaces the dataset reference backing the refinement step
// (exact Search and SearchCount, KNNExact). The shard engine builds each shard
// over the subset of entries intersecting its slab, then points every
// shard's refinement at the full dataset so exact-geometry lookups by
// global ID stay correct.
func (ix *Index) SetDataset(d *spatial.Dataset) { ix.dataset = d }

// slotAt returns the tile-table slot for (tx,ty), or -1 when the tile is
// empty.
func (ix *Index) slotAt(tx, ty int) int32 {
	return ix.slotOf(int32(ix.g.TileID(tx, ty)))
}

// tileAt returns the tile stored for (tx,ty), or nil when empty. The
// result is for reading; writers go through ownTile.
func (ix *Index) tileAt(tx, ty int) *tile {
	if slot := ix.slotAt(tx, ty); slot >= 0 {
		return ix.tile(int(slot))
	}
	return nil
}

// slotFor returns the slot of the tile for (tx,ty), allocating the tile
// if needed.
func (ix *Index) slotFor(tx, ty int) int32 {
	id := int32(ix.g.TileID(tx, ty))
	slot := ix.slotOf(id)
	if slot < 0 {
		slot = ix.appendTile(id)
		ix.setSlot(id, slot)
	}
	return slot
}

// classify returns the class of an entry in tile (tx,ty), given the cover
// range [ax..bx]x[ay..by] of the entry's MBR. Classification is done in
// tile space rather than by coordinate comparison so it is exactly
// consistent with replication: the entry is in class C or D of a tile if
// and only if it is also assigned to the previous tile in x, which is what
// the duplicate-avoidance lemmas rely on.
func classify(tx, ty, ax, ay int) Class {
	if tx == ax {
		if ty == ay {
			return ClassA
		}
		return ClassB
	}
	if ty == ay {
		return ClassC
	}
	return ClassD
}

// insert replicates e into every tile its MBR intersects, classifying it
// per tile.
func (ix *Index) insert(e spatial.Entry) {
	ix.mustBeWritable("Insert")
	if !e.Rect.Valid() || !e.Rect.Finite() {
		// A NaN, infinite or inverted rectangle would be silently clamped
		// into arbitrary tiles and then not be found; fail loudly instead.
		panic(fmt.Sprintf("core: inserting invalid rect %v (id %d)", e.Rect, e.ID))
	}
	ix.counts, ix.dec = nil, nil // the derived read tables are now stale
	ax, ay, bx, by := ix.g.CoverRect(e.Rect)
	for ty := ay; ty <= by; ty++ {
		for tx := ax; tx <= bx; tx++ {
			t := ix.ownTile(ix.slotFor(tx, ty))
			c := classify(tx, ty, ax, ay)
			t.classes[c] = append(t.classes[c], e)
		}
	}
	ix.size++
}

// Insert adds one object to the index; an inverted MBR, or one with a
// NaN or infinite coordinate, panics. It drops the derived read tables
// (the count prefix table and any 2-layer+ tables): queries then scan
// every tile plain until BuildDecomposed builds both again, which a Live
// index never does.
func (ix *Index) Insert(e spatial.Entry) { ix.insert(e) }

// mustBeWritable panics on a published Live snapshot, which every reader
// that pinned it shares; its writes go through Live.Apply instead.
func (ix *Index) mustBeWritable(op string) {
	if ix.published {
		panic("core: " + op + " on a published Live snapshot; submit mutations through Live.Apply")
	}
}

// Delete removes the object with the given id and MBR from the index. The
// MBR must be the exact rectangle the object was inserted with, since it
// determines the replication tiles: a replica is removed only when both
// its ID and its stored rectangle match, so a wrong MBR finds nothing and
// leaves the object whole. It reports whether the object was found. Like
// Insert, a successful Delete drops the derived read tables.
func (ix *Index) Delete(id spatial.ID, r geom.Rect) bool {
	ix.mustBeWritable("Delete")
	ax, ay, bx, by := ix.g.CoverRect(r)
	found := false
	for ty := ay; ty <= by; ty++ {
		for tx := ax; tx <= bx; tx++ {
			slot := ix.slotAt(tx, ty)
			if slot < 0 {
				continue
			}
			c := classify(tx, ty, ax, ay)
			list := ix.tile(int(slot)).classes[c]
			for i := range list {
				if list[i].ID == id && list[i].Rect == r {
					// Own the page and the class slices before the in-place
					// swap-remove; owning may move both, so re-fetch them.
					t := ix.ownTile(slot)
					list = t.classes[c]
					list[i] = list[len(list)-1]
					t.classes[c] = list[:len(list)-1]
					found = true
					break
				}
			}
		}
	}
	if found {
		ix.size--
		ix.counts, ix.dec = nil, nil // the derived read tables are now stale
	}
	return found
}

// MemoryFootprint returns the approximate memory of the index's data, in
// bytes: the stored entries (replicas included), the tile directory, and
// the derived read tables present — the count prefix table and the
// 2-layer+ side table. Tile headers and page references are not counted.
// Used by the tuning experiments (Figure 7).
func (ix *Index) MemoryFootprint() int {
	total := 0
	for slot := 0; slot < ix.numTiles; slot++ {
		total += ix.tile(slot).size() * int(entryBytes)
	}
	// The directory: 4 bytes per entry of every page present.
	total += 4 * dirPageSize * (len(ix.dense) + len(ix.sparse))
	if ix.counts != nil {
		total += 8 * len(ix.counts.sums)
	}
	if ix.dec != nil {
		total += ix.dec.footprint()
	}
	return total
}

// ReplicationFactor returns stored entries (including replicas) divided by
// distinct objects; 1.0 means no replication.
func (ix *Index) ReplicationFactor() float64 {
	if ix.size == 0 {
		return 0
	}
	stored := 0
	for slot := 0; slot < ix.numTiles; slot++ {
		stored += ix.tile(slot).size()
	}
	return float64(stored) / float64(ix.size)
}

// ClassCounts returns the total number of stored entries per class, used
// by tests and the experiment reports.
func (ix *Index) ClassCounts() [4]int {
	var n [4]int
	for slot := 0; slot < ix.numTiles; slot++ {
		t := ix.tile(slot)
		for c := 0; c < 4; c++ {
			n[c] += len(t.classes[c])
		}
	}
	return n
}
