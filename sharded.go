package twolayer

import (
	"github.com/twolayer/twolayer/internal/shard"
	"github.com/twolayer/twolayer/internal/spatial"
)

// ShardedOptions configure the sharded engine on top of Options.
type ShardedOptions struct {
	// Shards is the number of spatial shards. <= 0 selects one; the
	// count is always clamped to the grid's column count (a shard owns at
	// least one tile column).
	Shards int
}

// Sharded is a scatter-gather engine over S self-contained two-layer
// indices, each owning a contiguous slab of the grid's tile columns.
// A query runs the shards its MBR covers in order on the caller's
// goroutine, deduplicating boundary-replicated objects with the same
// reference-tile idea the two-layer scheme uses inside a shard (see
// docs/SHARDING.md). On one node a larger S buys a layout ready to
// distribute, not speed.
//
// Sharded exposes the query surface of Index — Search, SearchIDs,
// SearchCount, KNN, KNNExact, BatchWindowCounts, BatchDiskCounts — and is
// safe for any number of concurrent readers.
type Sharded struct {
	eng *shard.Engine
}

// BuildShardedRects builds a sharded engine over rectangle objects.
// Object i gets ID i. Shards build in parallel; what BuildRectsErr
// reports panics with its text on the caller's goroutine first. With no
// rectangles it is the empty engine a ShardedLive starts from.
func BuildShardedRects(rects []Rect, opts Options, so ShardedOptions) *Sharded {
	return buildSharded(spatial.NewDataset(rects), opts, so)
}

// BuildShardedGeoms builds a sharded engine over exact geometries
// (indexed by their MBRs), like BuildShardedRects. Object i gets ID i.
func BuildShardedGeoms(geoms []Geometry, opts Options, so ShardedOptions) *Sharded {
	return buildSharded(spatial.NewGeomDataset(geoms), opts, so)
}

func buildSharded(d *spatial.Dataset, opts Options, so ShardedOptions) *Sharded {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	return &Sharded{eng: shard.Build(d, opts.autoTuned(d.Len()), so.Shards)}
}

// Search evaluates q shard by shard and streams every matching object
// to fn exactly once, on the caller's goroutine; fn returns false to
// stop early. Semantics match Index.Search — same completion flag, same
// errors. Once fn stops the query or a Limit is reached, no further
// shard is scanned.
func (s *Sharded) Search(q Query, fn func(id ID, mbr Rect) bool) (complete bool, err error) {
	return s.eng.Search(q.toCore(), func(e spatial.Entry) bool {
		return fn(e.ID, e.Rect)
	}, nil)
}

// SearchIDs evaluates q and returns all matching IDs, appending to buf
// (which may be nil).
func (s *Sharded) SearchIDs(q Query, buf []ID) ([]ID, error) {
	return s.eng.SearchIDs(q.toCore(), buf)
}

// SearchCount evaluates q and returns the number of matching objects; a
// Limit caps the count. The covered shards count their own matches in
// turn, without buffering results, until the Limit is reached.
func (s *Sharded) SearchCount(q Query) (int, error) {
	return s.eng.SearchCount(q.toCore(), nil)
}

// KNN returns the k objects whose MBRs are nearest to q, ascending by
// distance (ties broken by ID). The shard holding q answers first, then
// only the shards near enough to hold a nearer object, and the lists
// merge through a k-way heap. Like Index.KNN it keeps no state on the engine,
// so any number of goroutines may call it at once.
func (s *Sharded) KNN(q Point, k int) []Neighbor {
	return s.eng.KNN(q, k, false, nil)
}

// KNNExact returns the k objects whose exact geometries are nearest to
// q. On an engine without geometries (a ShardedLive snapshot) it panics
// on the caller's goroutine, as Index.KNNExact does.
func (s *Sharded) KNNExact(q Point, k int) []Neighbor {
	return s.eng.KNN(q, k, true, nil)
}

// BatchWindowCounts evaluates a batch of window queries and returns
// per-query result counts, like Index.BatchWindowCounts: each shard runs
// its local batch kernel over the windows covering it.
func (s *Sharded) BatchWindowCounts(queries []Rect, strategy BatchStrategy, threads int) []int {
	return s.eng.BatchWindowCounts(queries, strategy, threads, nil)
}

// BatchDiskCounts evaluates a disk batch and returns per-query counts,
// like Index.BatchDiskCounts.
func (s *Sharded) BatchDiskCounts(queries []Disk, strategy BatchStrategy, threads int) []int {
	return s.eng.BatchDiskCounts(queries, strategy, threads, nil)
}

// ShardSpan records one shard's contribution to a traced query: which
// shard scanned, its wall time, how many results it contributed after
// deduplication, and the work it did there — the shard's query counters
// and the part of its time spent in exact-geometry refinement, as an
// Index.Traced view records them.
type ShardSpan struct {
	Shard     int
	ElapsedUS int64
	Results   int
	Stats     Stats
	RefineNS  int64
}

// ShardedView is a per-request tracing view of a Sharded engine: every
// query run through it, batches included, evaluates each shard it
// touches on a traced view of that shard and appends the shard's span
// to Spans. Views are cheap; use one per request and read Spans when
// done. The view itself is not safe for concurrent use (the engine is).
type ShardedView struct {
	s *Sharded
	// Spans accumulates one entry per shard scanned, across all queries
	// run through the view.
	Spans []ShardSpan
	// raw receives the engine's spans of the query running; capture
	// moves them to Spans when it returns.
	raw []shard.Span
}

// Traced returns a fresh tracing view of the engine.
func (s *Sharded) Traced() *ShardedView { return &ShardedView{s: s} }

func (v *ShardedView) capture() {
	for _, sp := range v.raw {
		v.Spans = append(v.Spans, ShardSpan{
			Shard:     sp.Shard,
			ElapsedUS: sp.ElapsedNS / 1e3,
			Results:   sp.Results,
			Stats:     sp.Stats,
			RefineNS:  sp.RefineNS,
		})
	}
	v.raw = v.raw[:0]
}

// Search is Sharded.Search with span capture.
func (v *ShardedView) Search(q Query, fn func(id ID, mbr Rect) bool) (bool, error) {
	defer v.capture()
	return v.s.eng.Search(q.toCore(), func(e spatial.Entry) bool {
		return fn(e.ID, e.Rect)
	}, &v.raw)
}

// SearchCount is Sharded.SearchCount with span capture.
func (v *ShardedView) SearchCount(q Query) (int, error) {
	defer v.capture()
	return v.s.eng.SearchCount(q.toCore(), &v.raw)
}

// KNN is Sharded.KNN with span capture.
func (v *ShardedView) KNN(q Point, k int) []Neighbor {
	defer v.capture()
	return v.s.eng.KNN(q, k, false, &v.raw)
}

// KNNExact is Sharded.KNNExact with span capture.
func (v *ShardedView) KNNExact(q Point, k int) []Neighbor {
	defer v.capture()
	return v.s.eng.KNN(q, k, true, &v.raw)
}

// BatchWindowCounts is Sharded.BatchWindowCounts with span capture: one
// span per shard whose batch ran.
func (v *ShardedView) BatchWindowCounts(queries []Rect, strategy BatchStrategy, threads int) []int {
	defer v.capture()
	return v.s.eng.BatchWindowCounts(queries, strategy, threads, &v.raw)
}

// BatchDiskCounts is Sharded.BatchDiskCounts with span capture.
func (v *ShardedView) BatchDiskCounts(queries []Disk, strategy BatchStrategy, threads int) []int {
	defer v.capture()
	return v.s.eng.BatchDiskCounts(queries, strategy, threads, &v.raw)
}

// Len returns the number of distinct objects (boundary replicas counted
// once).
func (s *Sharded) Len() int { return s.eng.Len() }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.eng.Shards() }

// Epoch returns the snapshot's epoch: the publish sequence number of a
// ShardedLive, which rises by one per published batch, whatever shards
// it touched, and never goes back across a durable restart. It is the
// maximum shard epoch (ShardStat.Epoch): a publish stamps every shard
// it touches with it.
func (s *Sharded) Epoch() uint64 { return s.eng.Epoch() }

// GridDims returns the global grid's tile counts per dimension (the
// union of all shard slabs).
func (s *Sharded) GridDims() (nx, ny int) { return s.eng.GridDims() }

// HasExactGeometries reports whether the engine can answer exact
// queries (Exact descriptors, KNNExact).
func (s *Sharded) HasExactGeometries() bool { return s.eng.HasExactGeometries() }

// MemoryFootprint approximates the data size across all shards in bytes
// (stored entries with their replicas, the tile directories, and the
// count prefix and 2-layer+ tables where held), including cross-shard
// replicas.
func (s *Sharded) MemoryFootprint() int { return s.eng.MemoryFootprint() }

// ReplicationFactor reports stored entries (tile and shard replicas)
// per distinct object.
func (s *Sharded) ReplicationFactor() float64 { return s.eng.ReplicationFactor() }

// PartitionStats merges the per-shard partitioning summaries; Replicas
// and the derived ratios include cross-shard boundary copies.
func (s *Sharded) PartitionStats() PartitionStats { return s.eng.PartitionStats() }

// QueryStats sums the query counters of all shards (see
// Index.QueryStats). A query counts once per shard it evaluated on, so
// Queries exceeds the number of requests when queries fan out.
func (s *Sharded) QueryStats() Stats { return s.eng.QueryStats() }

// ShardStat is the per-shard slice of ShardedStats.
type ShardStat = shard.ShardStat

// ShardedStats snapshots the engine's scatter-gather counters:
// single-shard vs fan-out query totals and, per shard, stored entries, epoch, routed
// queries, cumulative scan time, and results contributed.
type ShardedStats = shard.Stats

// Stats snapshots the scatter-gather counters. Counters are cumulative
// over the engine's lifetime and shared with every snapshot of a
// ShardedLive.
func (s *Sharded) Stats() ShardedStats { return s.eng.Stats() }

// ShardedLive is the package's one updatable handle, at any shard count.
// Readers call Snapshot and query the immutable engine it returns with
// no locks. One single-writer apply loop (and, under OpenDurable, one
// write-ahead log) batches mutations, routes each to the shards its MBR
// intersects, applies them copy-on-write to those shards alone (copying
// only the tile pages a batch touches) and publishes the next engine,
// every shard at one epoch, with one atomic store. So a batch is
// visible everywhere at once: a reader sees every object exactly once,
// an object moving across a slab edge included. A mutation call returns
// once its batch is published, so the caller observes its own write in
// every later Snapshot. All methods are safe for concurrent use.
type ShardedLive struct {
	l *shard.Live
}

// ShardedLiveFrom wraps a built engine, which becomes the epoch-0 state:
// OneShard(ix) for an index, BuildShardedRects(nil, …) for an empty one.
// It takes ownership of s: do not query s directly afterward. Snapshots
// serve MBR (filtering) queries only.
func ShardedLiveFrom(s *Sharded, lo LiveOptions) *ShardedLive {
	return &ShardedLive{l: shard.LiveFrom(s.eng, lo.toCore())}
}

// OneShard returns the one-shard engine over ix: the unsharded index as
// the S=1 case of Sharded, sharing ix's storage (no copy, no rebuild)
// and its geometries, so exact queries keep working. Every query answers
// and counts its work exactly as on ix; the engine adds its shard
// bookkeeping (Stats) and per-shard spans (Traced).
func OneShard(ix *Index) *Sharded { return &Sharded{eng: shard.One(ix.core)} }

// Snapshot returns the current immutable engine — one atomic load, no
// locks. Pin one snapshot per request.
func (sl *ShardedLive) Snapshot() *Sharded {
	return &Sharded{eng: sl.l.Snapshot()}
}

// Insert adds one object, blocking until it is published, and returns
// the epoch that made it visible. An inverted rectangle, or one with a
// NaN or infinite coordinate, is reported as an error.
func (sl *ShardedLive) Insert(id ID, mbr Rect) (epoch uint64, err error) {
	return sl.l.Insert(spatial.Entry{ID: id, Rect: mbr})
}

// Delete removes the object with the given ID and exact MBR from every
// shard holding a replica, reporting whether it was found.
func (sl *ShardedLive) Delete(id ID, mbr Rect) (found bool, epoch uint64, err error) {
	return sl.l.Delete(id, mbr)
}

// Apply publishes a batch of mutations in one snapshot and blocks until
// it is visible: all-or-nothing, across shards too. An invalid
// rectangle rejects the whole batch before anything is enqueued. The
// result's Epoch is the snapshot's (Sharded.Epoch).
func (sl *ShardedLive) Apply(muts []Mutation) (ApplyResult, error) {
	return sl.l.Apply(coreMutations(muts))
}

// Len returns the number of distinct objects currently indexed.
func (sl *ShardedLive) Len() int { return sl.l.Snapshot().Len() }

// Shards returns the shard count.
func (sl *ShardedLive) Shards() int { return sl.l.Snapshot().Shards() }

// Stats reports the apply loop's counters; Epoch and Objects are the
// current snapshot's.
func (sl *ShardedLive) Stats() LiveStats { return sl.l.Stats() }

// Close drains and stops the apply loop. Idempotent.
func (sl *ShardedLive) Close() { sl.l.Close() }
