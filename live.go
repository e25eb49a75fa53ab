package twolayer

import (
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/spatial"
)

// ErrLiveClosed is returned for mutations submitted to a closed
// ShardedLive.
var ErrLiveClosed = core.ErrLiveClosed

// ErrBacklogFull is returned for mutations submitted while a
// ShardedLive's pending backlog is at LiveOptions.MaxBacklog. Nothing is
// enqueued; back off and retry once the backlog drains.
var ErrBacklogFull = core.ErrBacklogFull

// LiveOptions tune the single-writer apply loop of a ShardedLive. A
// publish applies up to 256 pending mutations; up to 1024 submissions
// queue behind it before Apply blocks.
type LiveOptions struct {
	// MaxBacklog bounds the accepted-but-unpublished mutation backlog
	// per engine: a submission arriving while the backlog is at the
	// bound fails immediately with ErrBacklogFull instead of queuing, so
	// a mutation flood sheds load instead of growing memory without
	// bound. A rejected batch is rejected whole, on every shard. 0 means
	// unbounded.
	MaxBacklog int
}

func (o LiveOptions) toCore() core.LiveOptions {
	return core.LiveOptions{MaxBacklog: o.MaxBacklog}
}

// Mutation is one pending update for ShardedLive.Apply: an insertion of
// (ID, MBR), or — when Delete is set — the removal of the object with
// that ID and exact MBR.
type Mutation struct {
	Delete bool
	ID     ID
	MBR    Rect
}

// ApplyResult reports the outcome of a published mutation batch: the
// epoch that made it visible and, per mutation, whether a delete found
// its object (inserts are always true).
type ApplyResult = core.ApplyResult

// LiveStats is a point-in-time view of a ShardedLive's apply loop: the
// current snapshot epoch and size, the pending-mutation backlog, totals
// of applied mutations and publishes, and the size and wall time of the
// most recent publish.
type LiveStats = core.LiveStats

// coreMutations converts a mutation batch for the apply loop.
func coreMutations(muts []Mutation) []core.Mutation {
	cms := make([]core.Mutation, len(muts))
	for i, m := range muts {
		cms[i] = core.Mutation{Delete: m.Delete, Entry: spatial.Entry{ID: m.ID, Rect: m.MBR}}
	}
	return cms
}
