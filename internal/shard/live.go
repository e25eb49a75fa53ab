package shard

import (
	"slices"

	"github.com/twolayer/twolayer/internal/core"
)

// Live is the updatable sharded engine: one core apply loop whose
// published value is the whole *Engine. Each batch is routed once by
// MBR, only the shards it touches are cloned copy-on-write, and the
// next engine — its shards, distinct size and epoch — is published with
// one atomic store, so a Snapshot is one load and a batch that spans
// shards becomes visible in every shard at once: a concurrent reader
// sees an object that moves across a slab edge exactly once, before or
// after the move. Acked submitters read their own writes.
type Live = core.Loop[Engine, *Engine]

// LiveFrom wraps a built engine, which becomes the first snapshot.
// LiveFrom takes ownership of e: do not query it directly afterward.
// As with core.NewLive, dataset references are dropped — snapshots
// serve filtering queries only.
func LiveFrom(e *Engine, lo core.LiveOptions) *Live { return core.NewLoop(e, lo) }

// Publish readies e to be a loop's first snapshot (core.State): every
// shard is published read-only, and the geometries are dropped.
func (e *Engine) Publish() {
	for _, six := range e.shards {
		six.Publish()
	}
	e.dataset = nil
}

// Next returns the engine after muts, published at epoch (core.State):
// the shards muts touch are copy-on-write clones at epoch, the others
// are e's, so the maximum shard epoch is the engine's. e is unchanged.
func (e *Engine) Next(epoch uint64, muts []core.Mutation, found []bool) *Engine {
	next := *e
	next.shards = slices.Clone(e.shards)
	next.size += e.route(muts, found, func(s int, sub []core.Mutation, f []bool) {
		next.shards[s] = e.shards[s].Next(epoch, sub, f)
	})
	return &next
}

// Apply is Next in place, for crash recovery (core.State).
func (e *Engine) Apply(epoch uint64, muts []core.Mutation, found []bool) {
	e.size += e.route(muts, found, func(s int, sub []core.Mutation, f []bool) {
		e.shards[s].Apply(epoch, sub, f)
	})
}

// route hands fn, once per shard the batch touches and in shard order,
// the mutations whose rectangles intersect that shard's slab and their
// found flags; a delete found in any replica is found. It returns what
// the batch changes the distinct count by: inserts add one object,
// found deletes remove one.
func (e *Engine) route(muts []core.Mutation, found []bool, fn func(s int, sub []core.Mutation, f []bool)) int {
	if len(e.shards) == 1 {
		fn(0, muts, found)
	} else {
		perShard := make([][]core.Mutation, len(e.shards))
		perIndex := make([][]int, len(e.shards))
		for i := range muts {
			lo, hi := e.lay.rangeOf(muts[i].Entry.Rect)
			for s := lo; s <= hi; s++ {
				perShard[s] = append(perShard[s], muts[i])
				perIndex[s] = append(perIndex[s], i)
			}
		}
		for s, sub := range perShard {
			if len(sub) == 0 {
				continue
			}
			f := make([]bool, len(sub))
			fn(s, sub, f)
			for j, i := range perIndex[s] {
				found[i] = found[i] || f[j]
			}
		}
	}
	delta := 0
	for i := range muts {
		if !muts[i].Delete {
			delta++
		} else if found[i] {
			delta--
		}
	}
	return delta
}

// COWBytes sums the shards' copy-on-write byte counters (core.State).
func (e *Engine) COWBytes() int64 {
	var n int64
	for _, six := range e.shards {
		n += six.COWBytes()
	}
	return n
}
