// Package shard implements the sharded scatter-gather query engine: the
// grid's tile space is range-partitioned along x into S contiguous
// column slabs, each backed by a self-contained core.Index (live.go
// publishes all of them as one value from one apply loop, durable.go
// journals that loop in one write-ahead log). Queries route by their
// MBR to the shards whose slabs it covers and walk them in order on the
// caller's goroutine; one shard is the same walk with one step.
//
// Objects crossing a slab boundary are replicated into every shard their
// MBR intersects, exactly like the two-layer scheme replicates objects
// across tiles inside a shard. Deduplication therefore reuses the
// paper's reference-tile idea one level up: the shard holding the MBR's
// bottom-left x-coordinate (shardOf(MinX)) is the object's home shard,
// and during a walk over shards [q0,q1] a shard s reports an object
// only when s is the first shard of the cover (s == q0 — the analogue of
// the query-relative reference tile) or s is the object's home shard.
// Equivalently the unique reporter is max(q0, home): every (query,
// object) pair surfaces exactly once, decided with no cross-shard
// coordination by one comparison per candidate, Rect.MinX >=
// ownedFrom(s, q0), which is also the filter the count kernels take.
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

// Span records one shard's contribution to a traced scatter-gather
// query: which shard ran, how long its scan took, how many results it
// contributed after deduplication, and the work it did there — the
// shard's core counters and the part of its time spent in exact-geometry
// refinement.
type Span struct {
	Shard     int
	ElapsedNS int64
	Results   int
	Stats     core.Stats
	RefineNS  int64
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
	// SingleShard counts queries whose MBR covered one shard; Fanout
	// counts queries whose MBR covered two or more.
	SingleShard uint64
	Fanout      uint64
	PerShard    []ShardStat
}

// Engine is a set of S self-contained two-layer indices over contiguous
// column slabs, queried scatter-gather. Like core.Index it is safe for
// any number of concurrent readers; a live engine's snapshots come from
// Live.Snapshot, and it is also the value Live publishes (core.State).
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
// slab and shares d for exact-geometry refinement. Invalid options or
// data panic with core.BuildErr's text here, on the caller's goroutine:
// a shard build failing inside the fan-out would crash the process.
func Build(d *spatial.Dataset, opts core.Options, shards int) *Engine {
	opts, err := opts.ForData(d)
	if err != nil {
		panic(err.Error())
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

// One returns the one-shard engine over ix: the unsharded index as the
// S=1 case of the engine, sharing ix's storage (no copy, no rebuild).
// Its layout is ix's grid and its dataset ix's, if any, so exact queries
// keep working; with one slab the home-shard rule never drops a match,
// so every query answers and counts exactly as on ix.
func One(ix *core.Index) *Engine {
	return &Engine{
		lay:     oneLayout(ix),
		shards:  []*core.Index{ix},
		dataset: ix.Dataset(),
		size:    ix.Len(),
		met:     newMetrics(1),
	}
}

// oneLayout is the one-slab layout over ix's grid.
func oneLayout(ix *core.Index) layout {
	g := ix.Grid()
	return makeLayout(core.Options{NX: g.NX, NY: g.NY, Space: g.Space}, 1)
}

// errExactNeedsDataset mirrors the core error for engines that lost
// their geometries (live snapshots). Every shard of an engine with a
// dataset holds it too, so once a query passes Validate and this check
// no shard's Search can fail.
var errExactNeedsDataset = errors.New("shard: exact queries require an engine built over a Dataset")

// work is one query's evaluation on shard s, run on ix: the shard's
// index or, in a traced query, a traced view of it. It returns the
// number of results the shard contributed.
type work func(s int, ix *core.Index) int

// run runs w against shard s and returns its Span. A traced run hands w
// a traced view of the shard, so the Span carries the shard's counters
// and refinement time. Every shard evaluation of every query kind,
// batches included, goes through here.
func (e *Engine) run(s int, traced bool, w work) Span {
	start := time.Now()
	var sp Span
	if traced {
		var tr core.Trace
		sp.Results = w(s, e.shards[s].ViewTraced(&tr))
		sp.Stats, sp.RefineNS = tr.Stats, tr.RefineNS
	} else {
		sp.Results = w(s, e.shards[s])
	}
	sp.Shard, sp.ElapsedNS = s, time.Since(start).Nanoseconds()
	return sp
}

// scan runs a single query's w against shard s and accounts for it in
// the shard's queries, busyNS and results counters.
func (e *Engine) scan(s int, traced bool, w work) Span {
	sc := &e.met.perShard[s]
	sc.queries.Add(1)
	sp := e.run(s, traced, w)
	sc.busyNS.Add(sp.ElapsedNS)
	sc.results.Add(uint64(sp.Results))
	return sp
}

// count counts one query over shards lo..hi: a single-shard query or a
// fan-out.
func (e *Engine) count(lo, hi int) {
	if lo == hi {
		e.met.single.Add(1)
	} else {
		e.met.fanout.Add(1)
	}
}

// scatter runs w on the shards lo..hi in order on the caller's
// goroutine, counted once as a single-shard query or a fan-out, and
// stops after the shard in which *stop became true. spans, when
// non-nil, traces the scans and receives their Spans in shard order.
// w does not escape and nothing is buffered, so an untraced walk
// allocates nothing.
func (e *Engine) scatter(lo, hi int, spans *[]Span, stop *bool, w work) {
	e.count(lo, hi)
	for s := lo; s <= hi && !*stop; s++ {
		sp := e.scan(s, spans != nil, w)
		if spans != nil {
			*spans = append(*spans, sp)
		}
	}
}

// Search evaluates q and streams every matching entry to fn exactly
// once, on the caller's goroutine: the covered shards run in order, each
// passing on only the matches it owns for this query (layout.ownedFrom,
// which filters nothing in the cover's first shard). It reports whether
// the query ran to completion (false once fn stops it or Limit results
// were delivered); either way no further shard is scanned. spans, when
// non-nil, receives one Span per shard scanned.
func (e *Engine) Search(q core.Query, fn func(spatial.Entry) bool, spans *[]Span) (complete bool, err error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	if q.Exact && e.dataset == nil {
		return false, errExactNeedsDataset
	}
	lo, hi := e.lay.rangeOf(q.MBR())
	sub := q
	sub.Limit = 0
	stopped, emitted := false, 0
	e.scatter(lo, hi, spans, &stopped, func(s int, ix *core.Index) int {
		n := 0
		from := e.lay.ownedFrom(s, lo)
		// q passed the checks above, so no shard's Search can fail.
		ix.Search(sub, func(ent spatial.Entry) bool {
			if ent.Rect.MinX < from {
				return true
			}
			n++
			emitted++
			stopped = !fn(ent) || emitted == q.Limit
			return !stopped
		})
		return n
	})
	return !stopped, nil
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
// without buffering results: the covered shards count their owned
// matches in order and the counts sum. A Limit caps the total like it
// caps streamed results, and no shard is counted once it is reached.
//
// Plain window, disk and region queries push the count all the way
// down: every shard of the cover runs the count kernel under the
// home-shard dedup rule expressed as a coordinate filter
// (layout.ownedFrom). No entry is streamed through a callback anywhere
// on that path; exact queries stream under the same filter.
func (e *Engine) SearchCount(q core.Query, spans *[]Span) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.Exact && e.dataset == nil {
		return 0, errExactNeedsDataset
	}
	lo, hi := e.lay.rangeOf(q.MBR())
	sub := q
	sub.Limit = 0
	stopped, total := false, 0
	e.scatter(lo, hi, spans, &stopped, func(s int, ix *core.Index) int {
		n := 0
		from := e.lay.ownedFrom(s, lo)
		switch {
		case q.Exact:
			// As in Search, no shard's Search can fail here.
			ix.Search(sub, func(ent spatial.Entry) bool {
				if ent.Rect.MinX >= from {
					n++
				}
				return q.Limit == 0 || total+n < q.Limit
			})
		case q.Window != nil:
			n = ix.WindowCountFiltered(*q.Window, from)
		case q.Disk != nil:
			n = ix.DiskCountFiltered(q.Disk.Center, q.Disk.Radius, from)
		default:
			n = ix.RegionCountFiltered(q.Region, from)
		}
		total += n
		stopped = q.Limit > 0 && total >= q.Limit
		return n
	})
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
// geometric distance when exact is set, which requires geometries).
// The shard whose slab holds q.X answers its local top-k first. A
// nearer object than its k-th is stored in every shard its MBR meets,
// one of them within that distance of q.X in x, so only the shards
// whose slabs lie that close answer too, in order; with fewer than k
// neighbors in the first shard, every shard answers. The per-shard
// sorted lists merge through a k-way min-heap that drops
// boundary-replicated duplicates by ID. spans, when non-nil, receives
// one Span per shard read, in shard order.
func (e *Engine) KNN(q geom.Point, k int, exact bool, spans *[]Span) []core.Neighbor {
	if exact && e.dataset == nil {
		panic("shard: KNNExact requires an engine built over a Dataset")
	}
	if k <= 0 {
		return nil
	}
	S := len(e.shards)
	per := make([][]core.Neighbor, S)
	w := func(s int, ix *core.Index) int {
		if exact {
			per[s] = ix.KNNExact(q, k)
		} else {
			per[s] = ix.KNN(q, k)
		}
		return len(per[s])
	}
	home := e.lay.shardOf(q.X)
	first := e.scan(home, spans != nil, w)
	lo, hi := 0, S-1
	if n := len(per[home]); n == k {
		// Widened so that rounding in Dist cannot drop a shard at exactly
		// the k-th distance.
		reach := per[home][n-1].Dist * (1 + 1e-9)
		lo, hi = e.lay.rangeOf(geom.Rect{MinX: q.X - reach, MaxX: q.X + reach})
	}
	e.count(lo, hi)
	for s := lo; s <= hi; s++ {
		sp := first
		if s != home {
			sp = e.scan(s, spans != nil, w)
		}
		if spans != nil {
			*spans = append(*spans, sp)
		}
	}
	if lo == hi {
		return per[home]
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
// counts sum to an unsharded batch's with no per-result work. spans,
// when non-nil, traces each shard's batch and receives its Span.
func (e *Engine) BatchWindowCounts(queries []geom.Rect, strategy core.BatchStrategy, threads int, spans *[]Span) []int {
	return batchCounts(e, queries, func(w geom.Rect) geom.Rect { return w }, (*core.Index).BatchWindowCountsFiltered, strategy, threads, spans)
}

// BatchDiskCounts is BatchWindowCounts for disk queries.
func (e *Engine) BatchDiskCounts(queries []geom.Disk, strategy core.BatchStrategy, threads int, spans *[]Span) []int {
	return batchCounts(e, queries, geom.Disk.MBR, (*core.Index).BatchDiskCountsFiltered, strategy, threads, spans)
}

// batchCounts is the one body of both batch counts: shard by shard,
// count runs the shard's batch over the queries whose MBR covers it,
// each filtered by ownedFrom of its cover's first shard. A shard every
// query covers gets the caller's slice itself, so a one-shard engine
// runs the plain index's batch. An invalid MBR (inverted window,
// negative radius) covers no shard.
func batchCounts[Q any](e *Engine, queries []Q, mbr func(Q) geom.Rect,
	count func(ix *core.Index, local []Q, minX func(int) float64, strategy core.BatchStrategy, threads int) []int,
	strategy core.BatchStrategy, threads int, spans *[]Span) []int {
	lo := make([]int, len(queries))
	hi := make([]int, len(queries))
	covering := make([]int, len(e.shards)) // queries covering each shard
	for q := range queries {
		lo[q], hi[q] = 1, 0
		if r := mbr(queries[q]); r.Valid() {
			lo[q], hi[q] = e.lay.rangeOf(r)
		}
		for s := lo[q]; s <= hi[q]; s++ {
			covering[s]++
		}
	}
	counts := make([]int, len(queries))
	for s := range e.shards {
		if covering[s] == 0 {
			continue
		}
		local, global := queries, []int32(nil) // nil global: local is queries
		if covering[s] < len(queries) {
			local = make([]Q, 0, covering[s])
			global = make([]int32, 0, covering[s])
			for q := range queries {
				if lo[q] <= s && s <= hi[q] {
					local = append(local, queries[q])
					global = append(global, int32(q))
				}
			}
		}
		at := func(i int) int {
			if global == nil {
				return i
			}
			return int(global[i])
		}
		sp := e.run(s, spans != nil, func(s int, ix *core.Index) int {
			total := 0
			minX := func(i int) float64 { return e.lay.ownedFrom(s, lo[at(i)]) }
			for i, n := range count(ix, local, minX, strategy, threads) {
				counts[at(i)] += n
				total += n
			}
			return total
		})
		if spans != nil {
			*spans = append(*spans, sp)
		}
	}
	return counts
}

// Len returns the number of distinct objects across all shards
// (boundary replicas counted once).
func (e *Engine) Len() int { return e.size }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i's index (read-only; used in tests).
func (e *Engine) Shard(i int) *core.Index { return e.shards[i] }

// Epoch returns the engine's publish sequence number: the maximum shard
// epoch, since every publish stamps the shards it touches with the new
// epoch. At one shard it is the shard's epoch.
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

// QueryStats sums the shards' query counters (core.Index.QueryStats):
// a query counts once per shard it evaluated on.
func (e *Engine) QueryStats() core.Stats {
	var out core.Stats
	for _, six := range e.shards {
		st := six.QueryStats()
		out.Add(&st)
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
// Used when migrating a directory of per-shard logs, which recorded no
// cross-shard total.
func (e *Engine) countDistinct() int {
	n := 0
	for s, six := range e.shards {
		six.ForEach(func(ent spatial.Entry) {
			if e.lay.shardOf(ent.Rect.MinX) == s {
				n++
			}
		})
	}
	return n
}
