package twolayer

import (
	"errors"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/spatial"
)

// ErrLiveClosed is returned for mutations submitted to a closed Live
// index.
var ErrLiveClosed = core.ErrLiveClosed

// ErrBacklogFull is returned for mutations submitted while the apply
// loop's pending backlog is at LiveOptions.MaxBacklog (per shard on a
// sharded engine). Nothing is enqueued; back off and retry once the
// backlog drains.
var ErrBacklogFull = core.ErrBacklogFull

// LiveOptions tune a Live index's single-writer apply loop.
type LiveOptions struct {
	// MaxBatch caps the mutations applied per published snapshot. A
	// publish copies only the tile pages its batch touches, so there is
	// little fixed cost for larger batches to amortize — they mainly
	// share one journal append and fsync; smaller ones reduce
	// writer-observed latency. Defaults to 256.
	MaxBatch int
	// MaxBacklog bounds the accepted-but-unpublished mutation backlog
	// (per shard on a sharded engine): a submission arriving while the
	// backlog is at the bound fails immediately with ErrBacklogFull
	// instead of queuing, so a mutation flood sheds load instead of
	// growing memory without bound. 0 means unbounded.
	MaxBacklog int
}

func (o LiveOptions) toCore() core.LiveOptions {
	return core.LiveOptions{
		MaxBatch:   o.MaxBatch,
		MaxBacklog: o.MaxBacklog,
	}
}

// Mutation is one pending update for Live.Apply: an insertion of (ID,
// MBR), or — when Delete is set — the removal of the object with that ID
// and exact MBR.
type Mutation struct {
	Delete bool
	ID     ID
	MBR    Rect
}

// ApplyResult reports the outcome of a published mutation batch: the
// epoch that made it visible and, per mutation, whether a delete found
// its object (inserts are always true).
type ApplyResult = core.ApplyResult

// LiveStats is a point-in-time view of a Live index's apply loop: the
// current snapshot epoch and size, the pending-mutation backlog, totals
// of applied mutations and publishes, and the size and wall time of the
// most recent publish.
type LiveStats = core.LiveStats

// Live is an updatable index serving lock-free concurrent reads with
// MVCC-style snapshot isolation. Readers call Snapshot — one atomic load
// — and query the returned immutable Index like a static one; writers
// submit mutations that a single apply goroutine batches, applies
// copy-on-write (only the tile pages and class slices a batch touches
// are copied, whatever the index size), and publishes atomically as the
// next epoch. A mutation call returns once
// its batch is published, so the caller observes its own write in every
// later Snapshot. All methods are safe for concurrent use.
//
//	live, _ := twolayer.NewLive(twolayer.Options{
//		GridSize: 64,
//		Space:    twolayer.Rect{MaxX: 1, MaxY: 1},
//	}, twolayer.LiveOptions{})
//	defer live.Close()
//	live.Insert(1, twolayer.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2})
//	snap := live.Snapshot() // immutable; safe to query from any goroutine
//	n, err := snap.SearchCount(twolayer.Query{Window: &twolayer.Rect{MaxX: 0.5, MaxY: 0.5}})
type Live struct {
	live *core.Live
}

// NewLive returns an empty Live index over the given space. Options.Space
// must be set (there is no data to derive it from); invalid options are
// reported as an error.
func NewLive(opts Options, lo LiveOptions) (*Live, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Space == (Rect{}) {
		return nil, errors.New("twolayer: NewLive requires Options.Space (no data to derive it from)")
	}
	return &Live{live: core.NewLive(core.New(opts.toCore()), lo.toCore())}, nil
}

// LiveFrom wraps an already built index (BuildRects, BuildGeoms, New, or
// Load), which becomes the epoch-0 snapshot. LiveFrom takes ownership:
// the caller must not query or update ix directly afterward. Snapshots
// serve the filtering layer (MBR queries) only — exact-geometry queries
// are unavailable, since geometries cannot be attached to objects
// inserted later.
func LiveFrom(ix *Index, lo LiveOptions) *Live {
	return &Live{live: core.NewLive(ix.core, lo.toCore())}
}

// Snapshot returns the current published snapshot: immutable,
// consistent (it never reflects later mutations), and safe for any
// number of concurrent readers and all queries, KNN included, without
// further synchronization. Pin one snapshot per request or unit of work.
// Its Insert, Delete and RebuildDecomposed panic: updates go through
// Apply.
func (l *Live) Snapshot() *Index { return &Index{core: l.live.Snapshot()} }

// Insert adds an object and blocks until the insertion is published,
// returning the epoch that made it visible. Unlike Index.Insert, an
// invalid rectangle is reported as an error, not a panic.
func (l *Live) Insert(id ID, mbr Rect) (epoch uint64, err error) {
	return l.live.Insert(spatial.Entry{ID: id, Rect: mbr})
}

// Delete removes the object with the given ID and the exact MBR it was
// inserted with, blocking until the removal is published. It reports
// whether the object was found and the publishing epoch.
func (l *Live) Delete(id ID, mbr Rect) (found bool, epoch uint64, err error) {
	return l.live.Delete(id, mbr)
}

// Apply submits a batch of mutations published together in one snapshot
// (all-or-nothing visibility), blocking until they are visible. If any
// mutation carries an invalid rectangle the whole batch is rejected with
// an error and nothing is applied.
func (l *Live) Apply(muts []Mutation) (ApplyResult, error) {
	return l.live.Apply(coreMutations(muts))
}

// coreMutations converts a mutation batch for the apply loops.
func coreMutations(muts []Mutation) []core.Mutation {
	cms := make([]core.Mutation, len(muts))
	for i, m := range muts {
		cms[i] = core.Mutation{Delete: m.Delete, Entry: spatial.Entry{ID: m.ID, Rect: m.MBR}}
	}
	return cms
}

// Len returns the number of objects in the current snapshot.
func (l *Live) Len() int { return l.live.Snapshot().Len() }

// Stats returns the apply loop's monitoring counters.
func (l *Live) Stats() LiveStats { return l.live.Stats() }

// Close drains accepted mutations, publishes them, and stops the apply
// goroutine. Later mutations fail with ErrLiveClosed; Snapshot keeps
// serving the final state. Close is idempotent.
func (l *Live) Close() { l.live.Close() }
