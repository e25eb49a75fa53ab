package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements the MVCC mutation layer: a Live index accepts
// concurrent Insert/Delete traffic while readers keep querying immutable
// snapshots with zero locks on the hot path.
//
// Readers call Snapshot, an atomic pointer load, and query the returned
// *Index exactly like a static one; a pinned snapshot never changes, so a
// reader sees one consistent epoch for its whole request. Writers submit
// mutations to a single-writer apply loop that batches whatever is
// pending, applies the batch copy-on-write to a clone of the current
// snapshot (CloneCOW: the clone shares the paged tile table with its
// parent and copies, on first touch, only the tile pages and class
// slices the batch writes — grid replication keeps the touched-tile set
// small per mutation, so a publish costs O(touched), not O(tiles)), and
// atomically publishes the clone as the next epoch. Submissions block
// until their batch is published, so a writer that got its ack observes
// its own write in every later Snapshot (read-your-writes).
//
// The apply loop does no periodic maintenance. A seed's derived read
// tables — the count prefix table and, when built with Decompose, the
// 2-layer+ side table — are shared by every snapshot until the first
// write, whose clone drops both for good; every later snapshot scans its
// tiles plain, which answers the same.

// ErrLiveClosed is returned for mutations submitted after Close.
var ErrLiveClosed = errors.New("core: live index is closed")

// ErrBacklogFull is returned for mutations submitted while the apply
// loop's pending backlog is at LiveOptions.MaxBacklog. Nothing is
// enqueued; the caller should back off and retry — the backlog drains at
// the publish rate, so an overloaded writer sheds instead of growing the
// queue (and the process's memory) without bound.
var ErrBacklogFull = errors.New("core: live mutation backlog is full")

// LiveOptions tune the apply loop of a Live index.
type LiveOptions struct {
	// MaxBatch caps the mutations applied per published snapshot. A
	// publish has a small fixed cost (copying the tile-page references,
	// one journal append, one snapshot swap) and otherwise scales with
	// the pages the batch touches, so larger batches save little work;
	// they mainly share one journal fsync between more submitters, while
	// smaller ones reduce writer-observed latency. Defaults to 256.
	MaxBatch int
	// QueueDepth is the capacity of the mutation queue; submissions
	// beyond it block (backpressure). Defaults to 1024.
	QueueDepth int
	// MaxBacklog bounds the accepted-but-unpublished mutation backlog:
	// a submission that would push the pending count beyond it fails
	// immediately with ErrBacklogFull instead of queuing. This is the
	// overload valve — QueueDepth bounds queued *requests* (blocking),
	// MaxBacklog bounds queued *mutations* (rejecting), so a flood of
	// large batches cannot grow memory without bound. 0 means unbounded
	// (the pre-backpressure behavior).
	MaxBacklog int
	// Journal, when non-nil, is called from the apply loop with every
	// batch before it is applied or published: epoch is the epoch the
	// batch will publish as, muts the batch in application order. This is
	// the write-ahead hook — a durability layer (internal/wal) appends
	// and optionally fsyncs the batch here, so a batch is on disk before
	// any submitter is acked. A non-nil error aborts the batch: nothing
	// is applied, the snapshot does not advance, and every submitter in
	// the batch receives the error.
	Journal func(epoch uint64, muts []Mutation) error
}

func (o LiveOptions) withDefaults() LiveOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// Mutation is one pending update: an insertion of Entry, or — when Delete
// is set — the removal of the object with Entry's ID and exact MBR.
type Mutation struct {
	Delete bool
	Entry  spatial.Entry
}

// ApplyResult reports the outcome of a published mutation batch.
type ApplyResult struct {
	// Epoch is the snapshot epoch in which the mutations became visible.
	Epoch uint64
	// Found reports, per mutation, whether a delete found its object;
	// insert positions are always true.
	Found []bool
}

type applyAck struct {
	res ApplyResult
	err error
}

type applyReq struct {
	muts []Mutation
	done chan applyAck
}

// LiveStats is a point-in-time view of the apply loop's bookkeeping.
type LiveStats struct {
	Epoch       uint64        // epoch of the current snapshot
	Objects     int           // objects in the current snapshot
	Pending     int64         // mutations accepted but not yet published
	Applied     uint64        // mutations applied since NewLive
	Publishes   uint64        // snapshots published
	LastBatch   int64         // mutations in the most recent publish
	LastPublish time.Duration // wall time of the most recent publish
	// BacklogLimit echoes LiveOptions.MaxBacklog (0 = unbounded) and
	// Rejected counts submissions refused with ErrBacklogFull, so a
	// monitoring layer can alarm on backpressure without parsing errors.
	BacklogLimit int
	Rejected     uint64
	// PublishTotal is the cumulative wall time spent in publish (journal
	// write, copy-on-write apply, snapshot swap) since NewLive; together
	// with Publishes it yields a mean publish latency, and as a monotone
	// counter it rates cleanly in monitoring systems.
	PublishTotal time.Duration
	// JournalTotal is the part of PublishTotal spent in the
	// LiveOptions.Journal hook (write-ahead append and, by policy,
	// fsync). What remains is the clone, the copy-on-write apply and the
	// snapshot swap.
	JournalTotal time.Duration
	// COWBytes counts the bytes copied on first touch by copy-on-write
	// mutations since the index was created: tile pages, directory pages
	// and class slices. Divided by Applied it is the write amplification
	// of a mutation; it does not grow with the index.
	COWBytes int64
}

// Live is an updatable two-layer index serving lock-free reads: Snapshot
// returns an immutable *Index readers query without synchronization,
// while a single apply goroutine batches submitted mutations and
// publishes copy-on-write snapshots. All methods are safe for concurrent
// use.
type Live struct {
	snap atomic.Pointer[Index]
	opt  LiveOptions

	mu     sync.Mutex // serializes submissions against Close
	ops    chan applyReq
	closed bool
	wg     sync.WaitGroup

	pending       atomic.Int64
	rejected      atomic.Uint64
	applied       atomic.Uint64
	publishes     atomic.Uint64
	lastBatch     atomic.Int64
	lastPublishNS atomic.Int64
	publishNS     atomic.Int64
	journalNS     atomic.Int64
}

// NewLive wraps ix, which becomes epoch-0 snapshot of the Live index.
// NewLive takes ownership: the caller must not query or mutate ix
// directly afterward. Any dataset reference is dropped — snapshots serve
// the filtering layer (MBR queries) only, since exact geometries cannot
// be attached to objects inserted later. Call Close when done to stop the
// apply goroutine.
func NewLive(ix *Index, opt LiveOptions) *Live {
	*ix = *ix.View(nil) // detached from any Stats or Trace ix was a view with
	ix.dataset = nil
	ix.published = true
	l := &Live{
		opt: opt.withDefaults(),
	}
	l.ops = make(chan applyReq, l.opt.QueueDepth)
	l.snap.Store(ix)
	l.wg.Add(1)
	go l.run()
	return l
}

// Snapshot returns the current published snapshot: one atomic load, no
// locks. The result is immutable — it never changes as later mutations
// are published, and Insert, Delete or BuildDecomposed on it (or on a
// view of it) panic — and safe for any number of concurrent readers, kNN
// included; as with any shared Index, run stats-instrumented queries
// through per-goroutine views (Index.View).
func (l *Live) Snapshot() *Index { return l.snap.Load() }

// Insert adds one object and blocks until the insertion is published,
// returning the epoch that made it visible.
func (l *Live) Insert(e spatial.Entry) (uint64, error) {
	res, err := l.Apply([]Mutation{{Entry: e}})
	if err != nil {
		return 0, err
	}
	return res.Epoch, nil
}

// Delete removes the object with the given ID and exact MBR, blocking
// until the removal is published. It reports whether the object was found
// and the epoch of the publishing snapshot.
func (l *Live) Delete(id spatial.ID, r geom.Rect) (found bool, epoch uint64, err error) {
	res, err := l.Apply([]Mutation{{Delete: true, Entry: spatial.Entry{ID: id, Rect: r}}})
	if err != nil {
		return false, 0, err
	}
	return res.Found[0], res.Epoch, nil
}

// Apply submits a batch of mutations and blocks until they are published
// in one snapshot (all-or-nothing visibility). It returns ErrLiveClosed
// after Close, and a validation error — with nothing applied — if any
// mutation carries an invalid rectangle: inverted, or with a NaN or
// infinite coordinate.
func (l *Live) Apply(muts []Mutation) (ApplyResult, error) {
	if len(muts) == 0 {
		return ApplyResult{Epoch: l.Snapshot().epoch}, nil
	}
	for i := range muts {
		if !muts[i].Entry.Rect.Valid() || !muts[i].Entry.Rect.Finite() {
			return ApplyResult{}, fmt.Errorf(
				"core: mutation %d has invalid rect %v (id %d)",
				i, muts[i].Entry.Rect, muts[i].Entry.ID)
		}
	}
	req := applyReq{muts: muts, done: make(chan applyAck, 1)}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ApplyResult{}, ErrLiveClosed
	}
	// Backpressure: refuse (don't block) while the pending backlog is at
	// or beyond MaxBacklog. The check gates admission rather than size —
	// a batch admitted at the boundary may overshoot by its own length —
	// so the backlog stays bounded by MaxBacklog plus one batch and a
	// batch larger than the bound is still acceptable on an idle loop.
	// Checked under the lock so concurrent submitters serialize against
	// the bound.
	if mb := l.opt.MaxBacklog; mb > 0 && l.pending.Load() >= int64(mb) {
		l.mu.Unlock()
		l.rejected.Add(1)
		return ApplyResult{}, fmt.Errorf("%w: %d pending, limit %d",
			ErrBacklogFull, l.pending.Load(), mb)
	}
	l.pending.Add(int64(len(muts)))
	// Enqueue under the lock so Close cannot close the channel between
	// the closed check and the send. The apply loop never takes the lock,
	// so a full queue drains and the send completes.
	l.ops <- req
	l.mu.Unlock()
	ack := <-req.done
	return ack.res, ack.err
}

// Stats returns a consistent-enough point-in-time view of the apply
// loop's counters for monitoring.
func (l *Live) Stats() LiveStats {
	s := l.Snapshot()
	return LiveStats{
		Epoch:        s.epoch,
		Objects:      s.size,
		Pending:      l.pending.Load(),
		Applied:      l.applied.Load(),
		Publishes:    l.publishes.Load(),
		LastBatch:    l.lastBatch.Load(),
		LastPublish:  time.Duration(l.lastPublishNS.Load()),
		BacklogLimit: l.opt.MaxBacklog,
		Rejected:     l.rejected.Load(),
		PublishTotal: time.Duration(l.publishNS.Load()),
		JournalTotal: time.Duration(l.journalNS.Load()),
		COWBytes:     s.met.cowBytes.Load(),
	}
}

// Close drains already-accepted mutations, publishes them, and stops the
// apply goroutine. Mutations submitted after Close fail with
// ErrLiveClosed; Snapshot keeps serving the final snapshot. Close is
// idempotent.
func (l *Live) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.ops)
	l.mu.Unlock()
	l.wg.Wait()
}

// run is the single-writer apply loop: receive one request, drain up to
// MaxBatch pending mutations, apply them to a copy-on-write clone,
// publish, ack.
func (l *Live) run() {
	defer l.wg.Done()
	var batch []applyReq
	for {
		first, ok := <-l.ops
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		n := len(first.muts)
	drain:
		for n < l.opt.MaxBatch {
			select {
			case req, ok := <-l.ops:
				if !ok {
					break drain
				}
				batch = append(batch, req)
				n += len(req.muts)
			default:
				break drain
			}
		}
		l.publish(batch, n)
	}
}

// publish applies one batch to a clone of the current snapshot and makes
// the clone the next epoch. With a Journal configured, the batch is
// journaled first (write-ahead): only after the journal accepts it — i.e.
// the batch is durable under the journal's sync policy — is it applied
// and published, and only then are submitters acked.
func (l *Live) publish(batch []applyReq, n int) {
	start := time.Now()
	if l.opt.Journal != nil {
		muts := make([]Mutation, 0, n)
		for _, req := range batch {
			muts = append(muts, req.muts...)
		}
		if err := l.opt.Journal(l.Snapshot().epoch+1, muts); err != nil {
			err = fmt.Errorf("core: journaling batch: %w", err)
			l.pending.Add(-int64(n))
			for _, req := range batch {
				req.done <- applyAck{err: err}
			}
			return
		}
		l.journalNS.Add(time.Since(start).Nanoseconds())
	}
	next := l.Snapshot().CloneCOW()
	found := make([][]bool, len(batch))
	for bi, req := range batch {
		f := make([]bool, len(req.muts))
		for i, m := range req.muts {
			if m.Delete {
				f[i] = next.Delete(m.Entry.ID, m.Entry.Rect)
			} else {
				next.Insert(m.Entry)
				f[i] = true
			}
		}
		found[bi] = f
	}
	next.published = true
	l.snap.Store(next)

	l.applied.Add(uint64(n))
	l.publishes.Add(1)
	l.lastBatch.Store(int64(n))
	elapsed := time.Since(start).Nanoseconds()
	l.lastPublishNS.Store(elapsed)
	l.publishNS.Add(elapsed)
	l.pending.Add(-int64(n))
	for bi, req := range batch {
		req.done <- applyAck{res: ApplyResult{Epoch: next.epoch, Found: found[bi]}}
	}
}
