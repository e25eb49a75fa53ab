package twolayer

import (
	"errors"
	"log/slog"
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/shard"
	"github.com/twolayer/twolayer/internal/spatial"
)

// ShardedOptions configure the sharded engine on top of Options.
type ShardedOptions struct {
	// Shards is the number of spatial shards. <= 0 selects
	// DefaultThreads(); the count is always clamped to the grid's column
	// count (a shard owns at least one tile column).
	Shards int
}

func (so ShardedOptions) resolved() int {
	if so.Shards <= 0 {
		return DefaultThreads()
	}
	return so.Shards
}

// Sharded is a scatter-gather engine over S self-contained two-layer
// indices, each owning a contiguous slab of the grid's tile columns.
// Queries whose MBR lands in one slab run directly against that shard;
// wider queries fan out in parallel and merge, deduplicating
// boundary-replicated objects with the same reference-tile idea the
// two-layer scheme uses inside a shard (see docs/SHARDING.md).
//
// Sharded exposes only the unified query surface — Search, SearchIDs,
// SearchCount, KNN, KNNExact, BatchWindowCounts, BatchDiskCounts — not the legacy
// shape-specific variants. It is safe for any number of concurrent
// readers.
type Sharded struct {
	eng *shard.Engine
}

// BuildShardedRects builds a sharded engine over rectangle objects.
// Object i gets ID i. Shards build in parallel.
func BuildShardedRects(rects []Rect, opts Options, so ShardedOptions) *Sharded {
	d := spatial.NewDataset(rects)
	return &Sharded{eng: shard.Build(d, opts.autoTuned(d.Len()), so.resolved())}
}

// BuildShardedGeoms builds a sharded engine over exact geometries
// (indexed by their MBRs). Object i gets ID i. Shards build in parallel.
func BuildShardedGeoms(geoms []Geometry, opts Options, so ShardedOptions) *Sharded {
	d := spatial.NewGeomDataset(geoms)
	return &Sharded{eng: shard.Build(d, opts.autoTuned(d.Len()), so.resolved())}
}

// Search evaluates q scatter-gather and streams every matching object to
// fn exactly once, on the caller's goroutine; fn returns false to stop
// early. Semantics match Index.Search — same completion flag, same
// errors — plus parallel fan-out when the query spans several shards.
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
// Limit caps the count. Fanned-out shards count independently, without
// buffering results.
func (s *Sharded) SearchCount(q Query) (int, error) {
	return s.eng.SearchCount(q.toCore(), nil)
}

// KNN returns the k objects whose MBRs are nearest to q, ascending by
// distance (ties broken by ID). All shards answer in parallel and merge
// through a k-way heap. Unlike Index.KNN it needs no external
// synchronization — each call uses private scratch space.
func (s *Sharded) KNN(q Point, k int) []Neighbor {
	return s.eng.KNN(q, k, false, nil)
}

// KNNExact returns the k objects whose exact geometries are nearest to
// q. Requires an engine built with BuildShardedRects or
// BuildShardedGeoms.
func (s *Sharded) KNNExact(q Point, k int) []Neighbor {
	return s.eng.KNN(q, k, true, nil)
}

// BatchWindowCounts evaluates a batch of window queries and returns
// per-query result counts, like Index.BatchWindowCounts: each shard runs
// its local batch kernel over the windows covering it.
func (s *Sharded) BatchWindowCounts(queries []Rect, strategy BatchStrategy, threads int) []int {
	return s.eng.BatchWindowCounts(queries, strategy, threads)
}

// BatchDiskCounts evaluates a disk batch and returns per-query counts,
// like Index.BatchDiskCounts.
func (s *Sharded) BatchDiskCounts(queries []Disk, strategy BatchStrategy, threads int) []int {
	return s.eng.BatchDiskCounts(queries, strategy, threads)
}

// ShardSpan records one shard's contribution to a traced query: which
// shard scanned, its wall time, and how many results it contributed
// after deduplication.
type ShardSpan struct {
	Shard     int
	ElapsedUS int64
	Results   int
}

// ShardedView is a per-request tracing view of a Sharded engine: every
// query run through it appends its per-shard fan-out spans to Spans.
// Views are cheap; use one per request and read Spans when done. The
// view itself is not safe for concurrent use (the engine is).
type ShardedView struct {
	s *Sharded
	// Spans accumulates one entry per shard scanned, across all queries
	// run through the view.
	Spans []ShardSpan
}

// Traced returns a fresh tracing view of the engine.
func (s *Sharded) Traced() *ShardedView { return &ShardedView{s: s} }

func (v *ShardedView) capture(spans []shard.Span) {
	for _, sp := range spans {
		v.Spans = append(v.Spans, ShardSpan{
			Shard:     sp.Shard,
			ElapsedUS: sp.ElapsedNS / 1e3,
			Results:   sp.Results,
		})
	}
}

// Search is Sharded.Search with span capture.
func (v *ShardedView) Search(q Query, fn func(id ID, mbr Rect) bool) (bool, error) {
	var spans []shard.Span
	complete, err := v.s.eng.Search(q.toCore(), func(e spatial.Entry) bool {
		return fn(e.ID, e.Rect)
	}, &spans)
	v.capture(spans)
	return complete, err
}

// SearchCount is Sharded.SearchCount with span capture.
func (v *ShardedView) SearchCount(q Query) (int, error) {
	var spans []shard.Span
	n, err := v.s.eng.SearchCount(q.toCore(), &spans)
	v.capture(spans)
	return n, err
}

// KNN is Sharded.KNN with span capture.
func (v *ShardedView) KNN(q Point, k int) []Neighbor {
	var spans []shard.Span
	out := v.s.eng.KNN(q, k, false, &spans)
	v.capture(spans)
	return out
}

// KNNExact is Sharded.KNNExact with span capture.
func (v *ShardedView) KNNExact(q Point, k int) []Neighbor {
	var spans []shard.Span
	out := v.s.eng.KNN(q, k, true, &spans)
	v.capture(spans)
	return out
}

// Len returns the number of distinct objects (boundary replicas counted
// once).
func (s *Sharded) Len() int { return s.eng.Len() }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.eng.Shards() }

// Epoch returns the maximum shard epoch — shards publish independently,
// so this is an advisory high-water mark.
func (s *Sharded) Epoch() uint64 { return s.eng.Epoch() }

// GridDims returns the global grid's tile counts per dimension (the
// union of all shard slabs).
func (s *Sharded) GridDims() (nx, ny int) { return s.eng.GridDims() }

// Space returns the indexed region.
func (s *Sharded) Space() Rect { return s.eng.Space() }

// HasExactGeometries reports whether the engine can answer exact
// queries (Exact descriptors, KNNExact).
func (s *Sharded) HasExactGeometries() bool { return s.eng.HasExactGeometries() }

// MemoryFootprint approximates the data size across all shards (see
// Index.MemoryFootprint), including cross-shard replicas.
func (s *Sharded) MemoryFootprint() int { return s.eng.MemoryFootprint() }

// ReplicationFactor reports stored entries (tile and shard replicas)
// per distinct object.
func (s *Sharded) ReplicationFactor() float64 { return s.eng.ReplicationFactor() }

// PartitionStats merges the per-shard partitioning summaries; Replicas
// and the derived ratios include cross-shard boundary copies.
func (s *Sharded) PartitionStats() PartitionStats { return s.eng.PartitionStats() }

// EstimateWindow predicts the result cardinality of a window query by
// summing the per-shard O(tiles) estimates over the shards the window
// covers. Within a shard the estimate undercounts heavily replicated
// data; across shards, boundary-crossing objects are counted once per
// holding shard, which overcounts. Treat it as a planning signal, not a
// count.
func (s *Sharded) EstimateWindow(w Rect) float64 { return s.eng.EstimateWindow(w) }

// QueryPathStats sums the adaptive query-execution counters over all
// shards (see Index.QueryPathStats).
func (s *Sharded) QueryPathStats() PathStats { return s.eng.QueryPathStats() }

// ShardStat is the per-shard slice of ShardedStats.
type ShardStat = shard.ShardStat

// ShardedStats snapshots the engine's scatter-gather counters: fast-path
// vs fan-out query totals and, per shard, stored entries, epoch, routed
// queries, cumulative scan time, and results contributed.
type ShardedStats = shard.Stats

// Stats snapshots the scatter-gather counters. Counters are cumulative
// over the engine's lifetime and shared with every snapshot of a
// ShardedLive.
func (s *Sharded) Stats() ShardedStats { return s.eng.Stats() }

// ShardedLive is the updatable sharded engine: one independent apply
// loop (and, under OpenShardedDurable, one WAL) per shard, so mutation
// batches touching disjoint slabs journal, apply, and publish in
// parallel. Consistency is per shard — each shard keeps Live's
// guarantees (atomic batch visibility, read-your-writes), while a
// cross-shard batch becomes visible shard by shard and a Snapshot may
// interleave epochs across shards. Queries stay duplicate-free
// throughout. All methods are safe for concurrent use.
type ShardedLive struct {
	l *shard.Live
}

// NewShardedLive returns an empty updatable sharded engine. Options.
// Space must be set (there is no data to derive it from).
func NewShardedLive(opts Options, lo LiveOptions, so ShardedOptions) (*ShardedLive, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Space == (Rect{}) {
		return nil, errors.New("twolayer: NewShardedLive requires Options.Space (no data to derive it from)")
	}
	return &ShardedLive{l: shard.NewLive(opts.toCore(), lo.toCore(), so.resolved())}, nil
}

// ShardedLiveFrom wraps a built engine, which becomes the epoch-0 state
// of every shard. It takes ownership of s: do not query s directly
// afterward. Snapshots serve the filtering layer (MBR queries) only.
func ShardedLiveFrom(s *Sharded, lo LiveOptions) *ShardedLive {
	return &ShardedLive{l: shard.LiveFrom(s.engine(), lo.toCore())}
}

// engine exposes the internal engine to sibling constructors.
func (s *Sharded) engine() *shard.Engine { return s.eng }

// Snapshot returns an immutable engine over the shards' current
// snapshots — S atomic loads, no locks. Pin one snapshot per request.
func (sl *ShardedLive) Snapshot() *Sharded {
	return &Sharded{eng: sl.l.Snapshot()}
}

// Insert adds one object, blocking until every shard its MBR intersects
// has published the insertion. Invalid rectangles are reported as an
// error.
func (sl *ShardedLive) Insert(id ID, mbr Rect) (epoch uint64, err error) {
	return sl.l.Insert(core.Mutation{Entry: spatial.Entry{ID: id, Rect: mbr}})
}

// Delete removes the object with the given ID and exact MBR from every
// shard holding a replica, reporting whether it was found anywhere.
func (sl *ShardedLive) Delete(id ID, mbr Rect) (found bool, epoch uint64, err error) {
	return sl.l.Delete(core.Mutation{Entry: spatial.Entry{ID: id, Rect: mbr}})
}

// Apply routes each mutation to every shard its rectangle intersects
// and applies the per-shard batches concurrently, blocking until all
// involved shards have published. Validation is all-or-nothing (an
// invalid rectangle rejects the whole batch before anything is
// enqueued); visibility is atomic per shard, not across shards.
func (sl *ShardedLive) Apply(muts []Mutation) (ApplyResult, error) {
	cms := make([]core.Mutation, len(muts))
	for i, m := range muts {
		cms[i] = core.Mutation{
			Delete: m.Delete,
			Entry:  spatial.Entry{ID: m.ID, Rect: m.MBR},
		}
	}
	return sl.l.Apply(cms)
}

// Len returns the number of distinct objects currently indexed.
func (sl *ShardedLive) Len() int { return sl.l.Len() }

// Shards returns the shard count.
func (sl *ShardedLive) Shards() int { return sl.l.Shards() }

// Stats aggregates the per-shard apply-loop counters (sums for
// throughput counters, maxima for Epoch and LastPublish, the distinct
// object count for Objects).
func (sl *ShardedLive) Stats() LiveStats { return sl.l.Stats() }

// ShardStats snapshots the engine's scatter-gather counters.
func (sl *ShardedLive) ShardStats() ShardedStats { return sl.l.Snapshot().Stats() }

// Close drains and stops every shard's apply loop. Idempotent.
func (sl *ShardedLive) Close() { sl.l.Close() }

// ShardedDurableOptions configure OpenShardedDurable; the WAL knobs
// apply to every shard's log.
type ShardedDurableOptions struct {
	// Dir is the sharded durability directory: a layout manifest
	// (shards.json) plus one WAL subdirectory per shard. Created if
	// missing. Required.
	Dir string
	// Fsync selects the sync discipline of every shard's log (default
	// SyncInterval); FsyncInterval, SegmentBytes, and CheckpointEvery
	// match DurableOptions and apply per shard.
	Fsync           SyncPolicy
	FsyncInterval   time.Duration
	SegmentBytes    int64
	CheckpointEvery int
	// Seed, when non-nil and Dir holds no prior state, becomes the
	// initial engine: its layout defines the manifest and each shard is
	// checkpointed before mutations are accepted. Ignored (with a logged
	// notice) when Dir already has state. OpenShardedDurable takes
	// ownership of the seed.
	Seed *Sharded
	// Logger receives recovery and background-error notices. Defaults to
	// slog.Default().
	Logger *slog.Logger
}

// ShardedDurable couples a ShardedLive with one write-ahead log per
// shard: mutation batches journal in parallel per shard before they are
// acknowledged, and reopening recovers all shards concurrently under
// the layout pinned in the directory's manifest.
type ShardedDurable struct {
	d    *shard.Durable
	live *ShardedLive
}

// OpenShardedDurable opens (or cold-starts) a sharded durable engine in
// do.Dir. On a cold start the layout comes from do.Seed or from
// opts/so — opts must then carry a Space — and the manifest is written
// before any shard accepts mutations. When the directory holds prior
// state, the manifest's layout supersedes opts and so (logged when they
// disagree) and do.Seed is ignored. The returned RecoveryInfo slice has
// one entry per shard.
func OpenShardedDurable(opts Options, lo LiveOptions, do ShardedDurableOptions, so ShardedOptions) (*ShardedDurable, []RecoveryInfo, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.Space == (Rect{}) && do.Seed == nil && !shard.HasState(do.Dir) {
		return nil, nil, errors.New(
			"twolayer: OpenShardedDurable on an empty dir requires Options.Space or a Seed")
	}
	var seed *shard.Engine
	if do.Seed != nil {
		seed = do.Seed.engine()
	}
	d, infos, err := shard.Open(opts.toCore(), lo.toCore(), shard.DurableOptions{
		Dir:             do.Dir,
		Policy:          do.Fsync,
		SyncEvery:       do.FsyncInterval,
		SegmentBytes:    do.SegmentBytes,
		CheckpointEvery: do.CheckpointEvery,
		Logger:          do.Logger,
	}, so.resolved(), seed)
	if err != nil {
		return nil, infos, err
	}
	return &ShardedDurable{d: d, live: &ShardedLive{l: d.Live()}}, infos, nil
}

// Live returns the updatable engine; mutations submitted through it are
// journaled per shard before they are acknowledged.
func (d *ShardedDurable) Live() *ShardedLive { return d.live }

// Snapshot returns an immutable engine over the current shard
// snapshots; shorthand for Live().Snapshot().
func (d *ShardedDurable) Snapshot() *Sharded { return d.live.Snapshot() }

// Checkpoint checkpoints every shard concurrently, returning the
// maximum checkpointed epoch and the first per-shard error (other
// shards still complete).
func (d *ShardedDurable) Checkpoint() (uint64, error) { return d.d.Checkpoint() }

// Stats aggregates the per-shard durability counters: sums for
// throughput and size, the minimum checkpoint epoch (the replay bound
// is the least-checkpointed shard), the first failure encountered.
func (d *ShardedDurable) Stats() DurabilityStats { return d.d.Stats() }

// Close stops every shard's apply loop and WAL with a final flush,
// returning the combined close errors.
func (d *ShardedDurable) Close() error { return d.d.Close() }
