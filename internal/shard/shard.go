// Package shard implements the sharded scatter-gather query engine: the
// grid's tile space is range-partitioned along x into S contiguous
// column slabs, each backed by a self-contained core.Index (optionally
// with its own live apply loop and WAL directory, see live.go and
// durable.go). Queries route by their MBR — a query landing in one slab
// runs directly against that shard (the single-shard fast path), a query
// spanning several slabs fans out in parallel and merges per-shard
// results.
//
// Objects crossing a slab boundary are replicated into every shard their
// MBR intersects, exactly like the two-layer scheme replicates objects
// across tiles inside a shard. Deduplication therefore reuses the
// paper's reference-tile idea one level up: the shard holding the MBR's
// bottom-left x-coordinate (shardOf(MinX)) is the object's home shard,
// and during a fan-out over shards [q0,q1] a shard s reports an object
// only when s is the first shard of the cover (s == q0 — the analogue of
// the query-relative reference tile) or s is the object's home shard.
// Equivalently the unique reporter is max(q0, home): every (query,
// object) pair surfaces exactly once, decided in O(1) per candidate
// with no cross-shard coordination.
package shard

import (
	"container/heap"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// layout is the immutable shard geometry: which global grid columns each
// shard owns and where the slab boundaries fall in x.
type layout struct {
	// opts are the resolved global options (grid dimensions and space of
	// the equivalent unsharded index); per-shard options are derived
	// slabs of it.
	opts core.Options
	// starts[i] is the first global grid column of shard i;
	// starts[len-1] == NX. Shard i owns columns [starts[i], starts[i+1]).
	starts []int
	// bounds[i] is the x-coordinate where shard i+1 begins. shardOf is an
	// upper-bound search over it, so a coordinate exactly on a boundary
	// belongs to the right shard — the same half-open convention the grid
	// uses for tile ownership.
	bounds []float64
}

// makeLayout splits the resolved global grid into at most `shards`
// column slabs. The count is clamped to [1, NX]: a slab must own at
// least one column.
func makeLayout(global core.Options, shards int) layout {
	global = global.Resolved()
	if shards < 1 {
		shards = 1
	}
	if shards > global.NX {
		shards = global.NX
	}
	lay := layout{opts: global}
	lay.starts = make([]int, shards+1)
	for i := 0; i <= shards; i++ {
		lay.starts[i] = global.NX * i / shards
	}
	cellW := global.Space.Width() / float64(global.NX)
	lay.bounds = make([]float64, shards-1)
	for i := 1; i < shards; i++ {
		lay.bounds[i-1] = global.Space.MinX + float64(lay.starts[i])*cellW
	}
	return lay
}

func (l layout) shardCount() int { return len(l.starts) - 1 }

// shardOf returns the shard owning x-coordinate x. Coordinates left of
// the space map to shard 0 and right of it to the last shard — border
// slabs absorb out-of-space data just like border tiles do inside a
// shard.
func (l layout) shardOf(x float64) int {
	return sort.Search(len(l.bounds), func(i int) bool { return l.bounds[i] > x })
}

// ownedFrom returns the least Rect.MinX of the matches shard s reports
// for a query whose cover starts at shard lo: the first shard of the
// cover reports every match, every other shard those homed to it. An
// entry stored in shard s always begins left of the slab's right edge,
// so "homed to s" reduces to MinX >= bounds[s-1].
func (l layout) ownedFrom(s, lo int) float64 {
	if s == lo {
		return math.Inf(-1)
	}
	return l.bounds[s-1]
}

// rangeOf returns the closed range of shards whose slabs r intersects.
func (l layout) rangeOf(r geom.Rect) (lo, hi int) {
	return l.shardOf(r.MinX), l.shardOf(r.MaxX)
}

// shardOpts derives the core options of shard i: the global grid's
// columns [starts[i], starts[i+1]) at full height, so tile boundaries
// coincide exactly with the unsharded grid's.
func (l layout) shardOpts(i int) core.Options {
	o := l.opts
	o.NX = l.starts[i+1] - l.starts[i]
	cellW := l.opts.Space.Width() / float64(l.opts.NX)
	o.Space = geom.Rect{
		MinX: l.opts.Space.MinX + float64(l.starts[i])*cellW,
		MinY: l.opts.Space.MinY,
		MaxX: l.opts.Space.MinX + float64(l.starts[i+1])*cellW,
		MaxY: l.opts.Space.MaxY,
	}
	// Pin the outer edges to the exact global extents; accumulated float
	// error must not leave a sliver uncovered.
	if i == 0 {
		o.Space.MinX = l.opts.Space.MinX
	}
	if i == l.shardCount()-1 {
		o.Space.MaxX = l.opts.Space.MaxX
	}
	return o
}

// shardCounters is the per-shard slice of engine metrics. Counters are
// cumulative over the engine's lifetime and shared across live
// snapshots.
type shardCounters struct {
	queries atomic.Uint64
	busyNS  atomic.Int64
	results atomic.Uint64
}

type metrics struct {
	single   atomic.Uint64
	fanout   atomic.Uint64
	perShard []shardCounters
}

func newMetrics(shards int) *metrics {
	return &metrics{perShard: make([]shardCounters, shards)}
}

// Span records one shard's contribution to a scatter-gather query, for
// trace output: which shard ran, how long its scan took, and how many
// results it contributed after deduplication.
type Span struct {
	Shard     int
	ElapsedNS int64
	Results   int
}

// ShardStat is the per-shard slice of a Stats snapshot.
type ShardStat struct {
	// Objects is the number of entries stored in the shard (including
	// boundary replicas homed elsewhere).
	Objects int
	// Epoch is the shard's snapshot epoch.
	Epoch uint64
	// Queries, BusyNS, and Results are cumulative scan counters: queries
	// routed to the shard, wall time spent scanning it, and results it
	// contributed after deduplication.
	Queries uint64
	BusyNS  int64
	Results uint64
}

// Stats is a point-in-time snapshot of the engine's scatter-gather
// counters.
type Stats struct {
	// SingleShard counts queries answered on the single-shard fast path;
	// Fanout counts queries that scattered to two or more shards.
	SingleShard uint64
	Fanout      uint64
	PerShard    []ShardStat
}

// Engine is a set of S self-contained two-layer indices over contiguous
// column slabs, queried scatter-gather. Like core.Index it is safe for
// any number of concurrent readers; a live engine's snapshots come from
// Live.Snapshot.
type Engine struct {
	lay    layout
	shards []*core.Index
	// dataset is the full dataset backing exact-geometry refinement, nil
	// for engines without geometries (live snapshots, empty engines).
	dataset *spatial.Dataset
	// size is the number of distinct objects (boundary replicas counted
	// once).
	size int
	met  *metrics
}

// Build constructs a sharded engine over d, partitioned into at most
// `shards` column slabs (clamped to the grid's column count). Shards are
// built in parallel; each holds the subset of entries intersecting its
// slab and shares d for exact-geometry refinement. Like core.Build it
// panics on invalid entry rectangles.
func Build(d *spatial.Dataset, opts core.Options, shards int) *Engine {
	if opts.Space == (geom.Rect{}) {
		opts.Space = d.MBR()
	}
	lay := makeLayout(opts, shards)
	S := lay.shardCount()

	// Partition entries into per-shard subsets: an entry is replicated
	// into every shard its MBR intersects, sized exactly with a counting
	// pass first.
	parts := make([][]spatial.Entry, S)
	if S == 1 {
		parts[0] = d.Entries
	} else {
		counts := make([]int, S)
		for i := range d.Entries {
			lo, hi := lay.rangeOf(d.Entries[i].Rect)
			for s := lo; s <= hi; s++ {
				counts[s]++
			}
		}
		for s := range parts {
			parts[s] = make([]spatial.Entry, 0, counts[s])
		}
		for i := range d.Entries {
			lo, hi := lay.rangeOf(d.Entries[i].Rect)
			for s := lo; s <= hi; s++ {
				parts[s] = append(parts[s], d.Entries[i])
			}
		}
	}

	eng := &Engine{
		lay:     lay,
		shards:  make([]*core.Index, S),
		dataset: d,
		size:    d.Len(),
		met:     newMetrics(S),
	}
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The shard is built over its subset (non-dense IDs are fine for
			// querying; only refinement indexes by ID), then re-pointed at
			// the full dataset so Geom lookups by global ID stay correct.
			sub := &spatial.Dataset{Entries: parts[s], Geoms: d.Geoms}
			six := core.Build(sub, lay.shardOpts(s))
			six.SetDataset(d)
			eng.shards[s] = six
		}(s)
	}
	wg.Wait()
	return eng
}

// errExactNeedsDataset mirrors the core error for engines that lost
// their geometries (live snapshots).
var errExactNeedsDataset = errors.New("shard: exact queries require an engine built over a Dataset")

// scan runs work against shard s and accounts for it: the shard's
// queries, busyNS and results counters and the Span it returns. work
// returns the number of results the shard contributed. Every shard scan
// of every query kind goes through here.
func (e *Engine) scan(s int, work func(s int) int) Span {
	sc := &e.met.perShard[s]
	sc.queries.Add(1)
	start := time.Now()
	n := work(s)
	elapsed := time.Since(start).Nanoseconds()
	sc.busyNS.Add(elapsed)
	sc.results.Add(uint64(n))
	return Span{Shard: s, ElapsedNS: elapsed, Results: n}
}

// single runs a query that touches only shard s on the caller's
// goroutine, counted as a single-shard query. work does not escape, so
// the fast path of Search and SearchCount streams and counts without
// allocating.
func (e *Engine) single(s int, spans *[]Span, work func(s int) int) {
	e.met.single.Add(1)
	sp := e.scan(s, work)
	if spans != nil {
		*spans = append(*spans, sp)
	}
}

// scatter runs work on every shard of [lo, hi] and appends their Spans
// to spans (when non-nil) in shard order: concurrently, counted as one
// fan-out, or as single when the range is one shard. The callers keep
// only their per-shard work and their merge.
func (e *Engine) scatter(lo, hi int, spans *[]Span, work func(s int) int) {
	if lo == hi {
		e.single(lo, spans, work)
		return
	}
	e.met.fanout.Add(1)
	spanBuf := make([]Span, hi-lo+1)
	var wg sync.WaitGroup
	for s := lo; s <= hi; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spanBuf[s-lo] = e.scan(s, work)
		}()
	}
	wg.Wait()
	if spans != nil {
		*spans = append(*spans, spanBuf...)
	}
}

// Search evaluates q scatter-gather and streams every matching entry to
// fn exactly once, on the caller's goroutine. A query whose MBR lands in
// one slab runs directly against that shard; otherwise all covered
// shards scan in parallel into private buffers (deduplicating with the
// home-shard rule) and results are emitted in shard order. It reports
// whether the query ran to completion (false once fn stops it or Limit
// results were delivered). spans, when non-nil, receives one Span per
// shard scanned.
func (e *Engine) Search(q core.Query, fn func(spatial.Entry) bool, spans *[]Span) (complete bool, err error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	if q.Exact && e.dataset == nil {
		return false, errExactNeedsDataset
	}
	lo, hi := e.lay.rangeOf(q.MBR())
	if lo == hi {
		// Single-shard fast path: the shard's own result stream is already
		// duplicate free, no buffering needed.
		e.single(lo, spans, func(s int) int {
			n := 0
			complete, err = e.shards[s].Search(q, func(ent spatial.Entry) bool {
				n++
				return fn(ent)
			})
			return n
		})
		return complete, err
	}

	// Scatter: each covered shard scans concurrently into a private
	// buffer, keeping only entries it owns for this query. The per-shard
	// limit still applies — no shard can contribute more than Limit
	// results, so each stops as early as possible.
	sub := q
	sub.Limit = 0
	bufs := make([][]spatial.Entry, hi-lo+1)
	e.scatter(lo, hi, spans, func(s int) int {
		var kept []spatial.Entry
		e.shards[s].Search(sub, func(ent spatial.Entry) bool {
			if s == lo || e.lay.shardOf(ent.Rect.MinX) == s {
				kept = append(kept, ent)
				if q.Limit > 0 && len(kept) >= q.Limit {
					return false
				}
			}
			return true
		})
		bufs[s-lo] = kept
		return len(kept)
	})

	// Gather: emit in shard order on the caller's goroutine, honoring
	// the limit across shards.
	emitted := 0
	for _, buf := range bufs {
		for i := range buf {
			if q.Limit > 0 && emitted >= q.Limit {
				return false, nil
			}
			if !fn(buf[i]) {
				return false, nil
			}
			emitted++
		}
	}
	if q.Limit > 0 && emitted >= q.Limit {
		return false, nil
	}
	return true, nil
}

// SearchIDs evaluates q and returns all matching IDs, appending to buf.
func (e *Engine) SearchIDs(q core.Query, buf []spatial.ID) ([]spatial.ID, error) {
	_, err := e.Search(q, func(ent spatial.Entry) bool {
		buf = append(buf, ent.ID)
		return true
	}, nil)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// SearchCount evaluates q and returns the number of matching objects
// without buffering results: fanned-out shards count their owned matches
// independently and the counts sum. A Limit caps the total like it caps
// streamed results.
//
// Plain window and disk queries push the count all the way down: every
// shard of the cover runs the count kernel under the home-shard dedup
// rule expressed as a coordinate filter (layout.ownedFrom). No entry is
// streamed through a callback anywhere on that path.
func (e *Engine) SearchCount(q core.Query, spans *[]Span) (total int, err error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.Exact && e.dataset == nil {
		return 0, errExactNeedsDataset
	}
	lo, hi := e.lay.rangeOf(q.MBR())
	if lo == hi {
		e.single(lo, spans, func(s int) int {
			total, err = e.shards[s].SearchCount(q)
			return total
		})
		return total, err
	}

	sub := q
	sub.Limit = 0
	perShard := make([]int, hi-lo+1)
	e.scatter(lo, hi, spans, func(s int) int {
		n := 0
		switch {
		case q.Window != nil && !q.Exact:
			n = e.shards[s].WindowCountFiltered(*q.Window, e.lay.ownedFrom(s, lo))
		case q.Disk != nil && !q.Exact:
			n = e.shards[s].DiskCountFiltered(q.Disk.Center, q.Disk.Radius, e.lay.ownedFrom(s, lo))
		default:
			e.shards[s].Search(sub, func(ent spatial.Entry) bool {
				if s == lo || e.lay.shardOf(ent.Rect.MinX) == s {
					n++
					if q.Limit > 0 && n >= q.Limit {
						return false
					}
				}
				return true
			})
		}
		perShard[s-lo] = n
		return n
	})
	for _, n := range perShard {
		total += n
	}
	if q.Limit > 0 && total > q.Limit {
		total = q.Limit
	}
	return total, nil
}

// knnItem is one head of a per-shard sorted neighbor list in the k-way
// merge.
type knnItem struct {
	n   core.Neighbor
	src int // which shard list
	pos int // index of n within that list
}

// knnHeap is a min-heap over list heads ordered by (Dist, ID) — the ID
// tiebreak makes the merged order deterministic across shard counts.
type knnHeap []knnItem

func (h knnHeap) Len() int { return len(h) }
func (h knnHeap) Less(i, j int) bool {
	if h[i].n.Dist != h[j].n.Dist {
		return h[i].n.Dist < h[j].n.Dist
	}
	return h[i].n.ID < h[j].n.ID
}
func (h knnHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)   { *h = append(*h, x.(knnItem)) }
func (h *knnHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// KNN returns the k nearest neighbors of q by MBR distance (exact
// geometric distance when exact is set, which requires geometries). All
// shards answer their local top-k in parallel — nearness gives no slab
// bound, the k-th neighbor may live anywhere — and the per-shard sorted
// lists merge through a k-way min-heap that drops boundary-replicated
// duplicates by ID. spans, when non-nil, receives one Span per shard.
func (e *Engine) KNN(q geom.Point, k int, exact bool, spans *[]Span) []core.Neighbor {
	if k <= 0 {
		return nil
	}
	S := len(e.shards)
	per := make([][]core.Neighbor, S)
	e.scatter(0, S-1, spans, func(s int) int {
		if exact {
			per[s] = e.shards[s].KNNExact(q, k)
		} else {
			per[s] = e.shards[s].KNN(q, k)
		}
		return len(per[s])
	})
	if S == 1 {
		return per[0]
	}

	h := make(knnHeap, 0, S)
	for s, list := range per {
		if len(list) > 0 {
			h = append(h, knnItem{n: list[0], src: s, pos: 0})
		}
	}
	heap.Init(&h)
	out := make([]core.Neighbor, 0, k)
	seen := make(map[spatial.ID]struct{}, k)
	for len(h) > 0 && len(out) < k {
		it := h[0]
		if it.pos+1 < len(per[it.src]) {
			h[0] = knnItem{n: per[it.src][it.pos+1], src: it.src, pos: it.pos + 1}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if _, dup := seen[it.n.ID]; dup {
			continue
		}
		seen[it.n.ID] = struct{}{}
		out = append(out, it.n)
	}
	return out
}

// BatchWindowCounts evaluates a batch of window queries and returns
// per-query result counts. Each shard runs its local counted batch (with
// the requested strategy and thread count) over the queries covering
// it, each under SearchCount's rule (layout.ownedFrom), so the per-shard
// counts sum to an unsharded batch's with no per-result work.
func (e *Engine) BatchWindowCounts(queries []geom.Rect, strategy core.BatchStrategy, threads int) []int {
	return batchCounts(e, queries, func(w geom.Rect) geom.Rect { return w }, (*core.Index).BatchWindowCountsFiltered, strategy, threads)
}

// BatchDiskCounts is BatchWindowCounts for disk queries.
func (e *Engine) BatchDiskCounts(queries []geom.Disk, strategy core.BatchStrategy, threads int) []int {
	return batchCounts(e, queries, geom.Disk.MBR, (*core.Index).BatchDiskCountsFiltered, strategy, threads)
}

// batchCounts is the one body of both batch counts: shard by shard,
// count runs the shard's batch over the queries whose MBR covers it,
// each filtered by ownedFrom of its cover's first shard. An invalid MBR
// (inverted window, negative radius) covers no shard.
func batchCounts[Q any](e *Engine, queries []Q, mbr func(Q) geom.Rect,
	count func(ix *core.Index, local []Q, minX func(int) float64, strategy core.BatchStrategy, threads int) []int,
	strategy core.BatchStrategy, threads int) []int {
	lo := make([]int, len(queries))
	hi := make([]int, len(queries))
	for q := range queries {
		lo[q], hi[q] = 1, 0
		if r := mbr(queries[q]); r.Valid() {
			lo[q], hi[q] = e.lay.rangeOf(r)
		}
	}
	counts := make([]int, len(queries))
	for s := range e.shards {
		var local []Q
		var global []int32
		for q := range queries {
			if lo[q] <= s && s <= hi[q] {
				local = append(local, queries[q])
				global = append(global, int32(q))
			}
		}
		if len(local) == 0 {
			continue
		}
		minX := func(i int) float64 { return e.lay.ownedFrom(s, lo[global[i]]) }
		for i, n := range count(e.shards[s], local, minX, strategy, threads) {
			counts[global[i]] += n
		}
	}
	return counts
}

// Len returns the number of distinct objects across all shards
// (boundary replicas counted once).
func (e *Engine) Len() int { return e.size }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i's index (read-only; used for seeding per-shard
// WALs and in tests).
func (e *Engine) Shard(i int) *core.Index { return e.shards[i] }

// Epoch returns the maximum shard epoch — shards publish independently,
// so this is an advisory high-water mark, not a global snapshot version.
func (e *Engine) Epoch() uint64 {
	var max uint64
	for _, six := range e.shards {
		if ep := six.Epoch(); ep > max {
			max = ep
		}
	}
	return max
}

// GridDims returns the global grid's tile counts per dimension (the
// union of all shard slabs).
func (e *Engine) GridDims() (nx, ny int) { return e.lay.opts.NX, e.lay.opts.NY }

// Space returns the indexed region (the union of all shard slabs).
func (e *Engine) Space() geom.Rect { return e.lay.opts.Space }

// HasExactGeometries reports whether the engine can answer exact
// queries.
func (e *Engine) HasExactGeometries() bool { return e.dataset != nil }

// MemoryFootprint sums the data size of all shards (core's
// MemoryFootprint), including cross-shard replicas.
func (e *Engine) MemoryFootprint() int {
	total := 0
	for _, six := range e.shards {
		total += six.MemoryFootprint()
	}
	return total
}

// PartitionStats merges the per-shard partitioning summaries. Replicas
// (and every ratio derived from them) count cross-shard boundary copies
// on top of in-shard tile replication, so ReplicationFactor here is the
// true storage amplification of the sharded engine.
func (e *Engine) PartitionStats() core.PartitionStats {
	var out core.PartitionStats
	for _, six := range e.shards {
		ps := six.PartitionStats()
		out.GridTiles += ps.GridTiles
		out.OccupiedTiles += ps.OccupiedTiles
		out.Replicas += ps.Replicas
		for c := 0; c < 4; c++ {
			out.ClassCounts[c] += ps.ClassCounts[c]
		}
		if ps.MaxTileEntries > out.MaxTileEntries {
			out.MaxTileEntries = ps.MaxTileEntries
		}
	}
	out.Objects = e.size
	if out.OccupiedTiles > 0 {
		out.MeanTileEntries = float64(out.Replicas) / float64(out.OccupiedTiles)
	}
	if out.MeanTileEntries > 0 {
		out.SkewRatio = float64(out.MaxTileEntries) / out.MeanTileEntries
	}
	if out.Objects > 0 {
		out.ReplicationFactor = float64(out.Replicas) / float64(out.Objects)
	}
	if out.Replicas > 0 {
		out.BoundaryRatio = float64(out.Replicas-out.ClassCounts[0]) / float64(out.Replicas)
	}
	return out
}

// ReplicationFactor reports stored entries (tile and shard replicas) per
// distinct object.
func (e *Engine) ReplicationFactor() float64 {
	return e.PartitionStats().ReplicationFactor
}

// EstimateWindow sums the per-shard selectivity estimates over the
// shards w covers — the same O(tiles) planning signal core.Index
// exposes, scatter-gathered. Within a shard the estimate skews low for
// heavily replicated data (objects larger than a tile contribute through
// their class-A tile only); across shards, boundary-crossing objects are
// class A in every shard holding a replica, which skews the sum high.
// It is a planning signal, not a count.
func (e *Engine) EstimateWindow(w geom.Rect) float64 {
	if !w.Valid() {
		return 0
	}
	lo, hi := e.lay.rangeOf(w)
	est := 0.0
	for s := lo; s <= hi; s++ {
		est += e.shards[s].EstimateWindow(w)
	}
	return est
}

// QueryPathStats sums the per-shard adaptive-kernel counters (fast-path
// counts, bulk-counted entries, parallel chunking decisions).
func (e *Engine) QueryPathStats() core.PathStats {
	var out core.PathStats
	for _, six := range e.shards {
		out.Add(six.QueryPathStats())
	}
	return out
}

// Stats snapshots the engine's scatter-gather counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		SingleShard: e.met.single.Load(),
		Fanout:      e.met.fanout.Load(),
		PerShard:    make([]ShardStat, len(e.shards)),
	}
	for s := range e.shards {
		sc := &e.met.perShard[s]
		st.PerShard[s] = ShardStat{
			Objects: e.shards[s].Len(),
			Epoch:   e.shards[s].Epoch(),
			Queries: sc.queries.Load(),
			BusyNS:  sc.busyNS.Load(),
			Results: sc.results.Load(),
		}
	}
	return st
}

// countDistinct recomputes the distinct object count by enumerating
// every shard's entries and counting each one only in its home shard.
// Used after WAL recovery, where per-shard logs replay independently and
// the cross-shard total is not recorded anywhere.
func (e *Engine) countDistinct() int {
	var total atomic.Int64
	var wg sync.WaitGroup
	for s := range e.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n := 0
			e.shards[s].ForEach(func(ent spatial.Entry) {
				if e.lay.shardOf(ent.Rect.MinX) == s {
					n++
				}
			})
			total.Add(int64(n))
		}(s)
	}
	wg.Wait()
	return int(total.Load())
}
