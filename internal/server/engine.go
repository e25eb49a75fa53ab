package server

import (
	"fmt"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// searcher is the query surface one request (a single query or a batch)
// evaluates on: a private read view of a *twolayer.Index, a
// *twolayer.Sharded snapshot, or their traced variants.
type searcher interface {
	Search(q twolayer.Query, fn func(id twolayer.ID, mbr twolayer.Rect) bool) (bool, error)
	SearchCount(q twolayer.Query) (int, error)
	KNN(q twolayer.Point, k int) []twolayer.Neighbor
	KNNExact(q twolayer.Point, k int) []twolayer.Neighbor
	BatchWindowCounts(queries []twolayer.Rect, strategy twolayer.BatchStrategy, threads int) []int
	BatchDiskCounts(queries []twolayer.Disk, strategy twolayer.BatchStrategy, threads int) []int
}

// snapshot is one pinned, immutable state of the served engine, satisfied
// by *twolayer.Index and *twolayer.Sharded alike. Everything a request or
// a scrape reads besides a query's evaluation — introspection for
// /v1/stats, /healthz and the index gauges, the admission cost estimate
// — goes through it.
type snapshot interface {
	Len() int
	Epoch() uint64
	GridDims() (int, int)
	MemoryFootprint() int
	ReplicationFactor() float64
	PartitionStats() twolayer.PartitionStats
	HasExactGeometries() bool
	QueryStats() twolayer.Stats
	EstimateWindow(w twolayer.Rect) float64
}

// mutator is the mutation surface of a live-mode server, satisfied by
// *twolayer.Live and *twolayer.ShardedLive.
type mutator interface {
	Insert(id twolayer.ID, mbr twolayer.Rect) (uint64, error)
	Delete(id twolayer.ID, mbr twolayer.Rect) (found bool, epoch uint64, err error)
	Apply(muts []twolayer.Mutation) (twolayer.ApplyResult, error)
	Stats() twolayer.LiveStats
}

// checkpointer is the durability surface of a durable-mode server,
// satisfied by *twolayer.DurableLive and *twolayer.ShardedDurable.
type checkpointer interface {
	Checkpoint() (uint64, error)
	Stats() twolayer.DurabilityStats
}

// engine is the served topology, chosen once in New. It is the only
// place that knows whether requests read an unsharded index or a
// scatter-gather engine; handlers, stats and metrics see a snapshot, a
// searcher and a queryTrace.
type engine interface {
	// pin returns the current snapshot: the static engine itself, or the
	// latest published copy-on-write snapshot in a live mode (immutable;
	// later mutations go into later snapshots).
	pin() snapshot
	// open pins the current snapshot and returns the searcher one
	// request of the given kind evaluates on. With traced set it also
	// returns done, to call once after a successful evaluation, which
	// returns the evaluation's trace; otherwise done is nil and the
	// searcher is the snapshot itself. A traced view runs the kernels the
	// snapshot runs, so observing a query never changes what it costs.
	open(kind string, traced bool) (view searcher, done func() queryTrace)
}

// queryTrace is one finished traced evaluation, in the terms its
// topology records: core counters and stage timings on an unsharded
// index, per-shard fan-out spans on a sharded engine.
type queryTrace interface {
	Elapsed() time.Duration
	// slowAttrs are the slow-query log fields describing the evaluation.
	slowAttrs() []any
	// render returns the compact X-Trace response header value and the
	// response's "trace" field.
	render() (header string, body *traceJSON)
}

// indexEngine serves one unsharded index.
type indexEngine struct {
	// current returns the index to read now: the static index, or the
	// live index's current snapshot.
	current func() *twolayer.Index
}

func (e indexEngine) pin() snapshot { return e.current() }

func (e indexEngine) open(kind string, traced bool) (searcher, func() queryTrace) {
	ix := e.current()
	if !traced {
		return ix, nil
	}
	view, tr := ix.Traced()
	tr.Kind = kind
	start := time.Now()
	return view, func() queryTrace {
		tr.Finish(start)
		return indexTrace{tr}
	}
}

type indexTrace struct{ *twolayer.Trace }

func (t indexTrace) slowAttrs() []any {
	return []any{
		"elapsed_us", t.ElapsedNS / 1000,
		"filter_us", t.FilterNS() / 1000,
		"refine_us", t.RefineNS / 1000,
		"tiles_visited", t.TilesVisited,
		"entries_scanned", t.EntriesScanned,
		"comparisons", t.Comparisons,
		"refinement_tests", t.RefinementTests,
		"results", t.Results,
	}
}

func (t indexTrace) render() (string, *traceJSON) {
	return fmt.Sprintf(
		"kind=%s elapsed_us=%d filter_us=%d refine_us=%d tiles=%d entries=%d results=%d",
		t.Kind, t.ElapsedNS/1000, t.FilterNS()/1000, t.RefineNS/1000,
		t.TilesVisited, t.EntriesScanned, t.Results), newTraceJSON(t.Trace)
}

// shardedEngine serves a scatter-gather engine. Its traces carry
// per-shard fan-out spans instead of core counters; the shards' query
// counters still reach the engine total (Sharded.QueryStats).
type shardedEngine struct {
	// current returns the engine to read now: the static engine, or an
	// engine over the shards' current snapshots.
	current func() *twolayer.Sharded
}

func (e shardedEngine) pin() snapshot { return e.current() }

func (e shardedEngine) open(kind string, traced bool) (searcher, func() queryTrace) {
	sh := e.current()
	if !traced {
		return sh, nil
	}
	view := tracedShards{sh.Traced(), sh}
	start := time.Now()
	return view, func() queryTrace {
		return &shardedTrace{kind: kind, elapsed: time.Since(start), spans: view.Spans}
	}
}

// tracedShards is a traced sharded view with its snapshot's batch
// counts: a batch records no per-shard spans.
type tracedShards struct {
	*twolayer.ShardedView
	snap *twolayer.Sharded
}

func (v tracedShards) BatchWindowCounts(queries []twolayer.Rect, strategy twolayer.BatchStrategy, threads int) []int {
	return v.snap.BatchWindowCounts(queries, strategy, threads)
}

func (v tracedShards) BatchDiskCounts(queries []twolayer.Disk, strategy twolayer.BatchStrategy, threads int) []int {
	return v.snap.BatchDiskCounts(queries, strategy, threads)
}

type shardedTrace struct {
	kind    string
	elapsed time.Duration
	spans   []twolayer.ShardSpan
}

func (t *shardedTrace) Elapsed() time.Duration { return t.elapsed }

func (t *shardedTrace) slowAttrs() []any {
	return []any{
		"elapsed_us", t.elapsed.Microseconds(),
		"shards_scanned", len(t.spans),
	}
}

func (t *shardedTrace) render() (string, *traceJSON) {
	tj := &traceJSON{Kind: t.kind, ElapsedUS: t.elapsed.Microseconds()}
	for _, sp := range t.spans {
		tj.Shards = append(tj.Shards, shardSpanJSON(sp))
	}
	return fmt.Sprintf("kind=%s elapsed_us=%d shards=%d",
		t.kind, tj.ElapsedUS, len(t.spans)), tj
}
