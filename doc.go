// Package twolayer is an in-memory spatial index for non-point objects
// (rectangles, polygons, linestrings), implementing the two-layer
// partitioning of Tsitsigkos et al., "A Two-layer Partitioning for
// Non-point Spatial Data" (ICDE 2021).
//
// The index is a regular grid whose tiles are secondarily partitioned
// into four object classes. Range queries read, per tile, only the
// classes that cannot produce duplicate results, so — unlike classic
// replicating grid indices — no duplicate is ever generated or
// eliminated, and border tiles need at most one coordinate comparison per
// object and dimension. An optional decomposed storage mode ("2-layer+")
// answers border tiles with binary searches on sorted coordinate tables.
//
// # Quick start
//
// Build an index with [BuildRects] or [BuildGeoms], then describe every
// range query — a window, a disk or an arbitrary [Region], optionally
// refined against the exact geometries and capped by a Limit — as one
// [Query] and run it with [Index.Search] (stream), [Index.SearchIDs]
// (collect) or [Index.SearchCount] (count). ExampleBuildRects,
// ExampleIndex_Search and ExampleIndex_SearchCount are compiled, tested
// quick starts.
//
// Exact (non-rectangular) geometries are supported through BuildGeoms;
// window and disk queries over them use a secondary filter that skips the
// expensive refinement step for most results. Batches of queries can be
// evaluated with cache-conscious tile-at-a-time processing, serially or
// on all cores.
//
// # Observability
//
// Three concurrency-safe instruments expose what the index is doing.
// Every query counts its own work on its stack, so none of them changes
// which kernel a query runs:
//
//   - [Index.Instrumented] returns a read view whose queries add the
//     work they performed (tiles visited, comparisons, duplicates
//     avoided, Lemma 5 filter hits, …) to a private [Stats] when they
//     end. Merge finished views into a shared [AtomicStats] to aggregate
//     across goroutines.
//   - [Index.Traced] additionally records per-stage wall-clock timings
//     (filtering vs. exact-geometry refinement) into a [Trace] — the
//     building block for per-query tracing and slow-query logs.
//   - [Index.PartitionStats] summarizes the partitioning itself:
//     occupied tiles, per-class entry counts, replication factor, and
//     tile-occupancy skew.
//
// See ExampleIndex_Traced and ExampleAtomicStats for the intended
// hookup, and docs/OBSERVABILITY.md in the repository for how the
// bundled server turns these into Prometheus metrics and request
// traces.
package twolayer
