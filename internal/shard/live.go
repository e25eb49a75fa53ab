package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/core"
)

// Live is the updatable sharded engine: one core.Live apply loop per
// shard, so mutation batches touching disjoint slabs journal, apply, and
// publish in parallel. Readers call Snapshot for an immutable Engine
// over the shards' current snapshots.
//
// Consistency is per shard: each shard keeps core.Live's guarantees
// (atomic batch visibility, read-your-writes for acked submitters), but
// a Snapshot taken during concurrent mutations may interleave different
// epochs across shards, and a mutation replicated to several shards
// becomes visible shard by shard. Engine-level queries remain duplicate
// free throughout — the ownership rule never reports a replica twice —
// though a boundary-crossing object may transiently be missing from (or
// visible in) only some of its shards mid-apply.
type Live struct {
	lay   layout
	lives []*core.Live
	met   *metrics
	size  atomic.Int64
	// rejected counts batches refused by the backpressure pre-flight in
	// Apply (per-shard rejections are counted by the shards themselves).
	rejected atomic.Uint64
}

// LiveFrom wraps a built engine, which becomes the epoch-0 state of
// every shard. LiveFrom takes ownership of e: do not query it directly
// afterward. As with core.NewLive, dataset references are dropped —
// snapshots serve filtering queries only.
func LiveFrom(e *Engine, lo core.LiveOptions) *Live {
	l := &Live{lay: e.lay, met: e.met}
	l.size.Store(int64(e.size))
	l.lives = make([]*core.Live, len(e.shards))
	for s, six := range e.shards {
		l.lives[s] = core.NewLive(six, lo)
	}
	return l
}

// Snapshot returns an immutable engine over the shards' current
// snapshots: S atomic loads, no locks. Scatter-gather counters are
// shared with every other snapshot of this Live. The distinct size is
// the Live's counter, or the one shard's own Len.
func (l *Live) Snapshot() *Engine {
	snaps := make([]*core.Index, len(l.lives))
	for s, lv := range l.lives {
		snaps[s] = lv.Snapshot()
	}
	size := int(l.size.Load())
	if len(snaps) == 1 {
		size = snaps[0].Len()
	}
	return &Engine{
		lay:    l.lay,
		shards: snaps,
		size:   size,
		met:    l.met,
	}
}

// Insert adds one object, blocking until every shard its MBR intersects
// has published the insertion.
func (l *Live) Insert(e core.Mutation) (uint64, error) {
	res, err := l.Apply([]core.Mutation{e})
	if err != nil {
		return 0, err
	}
	return res.Epoch, nil
}

// Apply routes each mutation to every shard its rectangle intersects and
// applies the per-shard batches concurrently, blocking until all
// involved shards have published. The returned epoch is the maximum
// publishing epoch (advisory — see the Live consistency note); Found
// reports, per mutation, whether any shard found the delete target.
//
// All mutations are validated up front — an invalid rectangle fails the
// whole batch with nothing applied. Atomic visibility holds per shard,
// not across shards: a reader may observe one shard's half of the batch
// before another's. A batch that lies in one shard goes to that shard's
// apply loop whole, from the caller's goroutine, with its atomicity.
func (l *Live) Apply(muts []core.Mutation) (core.ApplyResult, error) {
	if len(muts) == 0 {
		return core.ApplyResult{Epoch: l.Snapshot().Epoch()}, nil
	}
	for i := range muts {
		if !muts[i].Entry.Rect.Valid() || !muts[i].Entry.Rect.Finite() {
			return core.ApplyResult{}, fmt.Errorf(
				"shard: mutation %d has invalid rect %v (id %d)",
				i, muts[i].Entry.Rect, muts[i].Entry.ID)
		}
	}
	S := len(l.lives)
	if s := l.home(muts); s >= 0 {
		res, err := l.lives[s].Apply(muts)
		if err == nil && S > 1 {
			l.size.Add(sizeDelta(muts, res.Found))
		}
		return res, err
	}
	perShard := make([][]core.Mutation, S)
	perIndex := make([][]int, S)
	for i := range muts {
		lo, hi := l.lay.rangeOf(muts[i].Entry.Rect)
		for s := lo; s <= hi; s++ {
			perShard[s] = append(perShard[s], muts[i])
			perIndex[s] = append(perIndex[s], i)
		}
	}

	// Backpressure pre-flight: if any involved shard's backlog is already
	// full, reject the whole batch before dispatching anything, so the
	// common overload case never half-applies a batch across shards. The
	// check is advisory (a shard can fill between check and dispatch —
	// then the per-shard rejection below still surfaces), but it makes
	// rejection atomic in the steady overloaded state.
	for s := 0; s < S; s++ {
		if len(perShard[s]) == 0 {
			continue
		}
		if st := l.lives[s].Stats(); st.BacklogLimit > 0 && st.Pending >= int64(st.BacklogLimit) {
			l.rejected.Add(1)
			return core.ApplyResult{}, fmt.Errorf(
				"shard %d: %w: %d pending, limit %d",
				s, core.ErrBacklogFull, st.Pending, st.BacklogLimit)
		}
	}

	results := make([]core.ApplyResult, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		if len(perShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = l.lives[s].Apply(perShard[s])
		}(s)
	}
	wg.Wait()

	res := core.ApplyResult{Found: make([]bool, len(muts))}
	for s := 0; s < S; s++ {
		if errs[s] != nil {
			return core.ApplyResult{}, errs[s]
		}
		if results[s].Epoch > res.Epoch {
			res.Epoch = results[s].Epoch
		}
		for j, i := range perIndex[s] {
			if results[s].Found[j] {
				res.Found[i] = true
			}
		}
	}

	l.size.Add(sizeDelta(muts, res.Found))
	return res, nil
}

// home returns the one shard every mutation's rectangle lies in, or -1
// when the batch spans shards.
func (l *Live) home(muts []core.Mutation) int {
	s, _ := l.lay.rangeOf(muts[0].Entry.Rect)
	for i := range muts {
		if lo, hi := l.lay.rangeOf(muts[i].Entry.Rect); lo != s || hi != s {
			return -1
		}
	}
	return s
}

// sizeDelta is what an applied batch changes the engine-wide distinct
// count by: inserts always add one object, deletes remove one when any
// shard found it.
func sizeDelta(muts []core.Mutation, found []bool) int64 {
	var delta int64
	for i := range muts {
		if !muts[i].Delete {
			delta++
		} else if found[i] {
			delta--
		}
	}
	return delta
}

// Delete removes the object with the given ID and exact MBR from every
// shard holding a replica, reporting whether it was found anywhere.
func (l *Live) Delete(m core.Mutation) (found bool, epoch uint64, err error) {
	m.Delete = true
	res, err := l.Apply([]core.Mutation{m})
	if err != nil {
		return false, 0, err
	}
	return res.Found[0], res.Epoch, nil
}

// Len returns the number of distinct objects currently indexed.
func (l *Live) Len() int {
	if len(l.lives) == 1 {
		return l.lives[0].Snapshot().Len()
	}
	return int(l.size.Load())
}

// Shards returns the shard count.
func (l *Live) Shards() int { return len(l.lives) }

// Stats aggregates the per-shard apply-loop counters: sums for
// throughput counters (Pending and Rejected included — backpressure is
// enforced per shard, so the totals describe engine-wide pressure), the
// maximum for Epoch and LastPublish, the per-shard value for
// BacklogLimit (every shard is configured identically), and the
// engine-wide distinct count for Objects.
func (l *Live) Stats() core.LiveStats {
	var out core.LiveStats
	for _, lv := range l.lives {
		st := lv.Stats()
		if st.Epoch > out.Epoch {
			out.Epoch = st.Epoch
		}
		out.Pending += st.Pending
		out.Applied += st.Applied
		out.Publishes += st.Publishes
		out.LastBatch += st.LastBatch
		if st.LastPublish > out.LastPublish {
			out.LastPublish = st.LastPublish
		}
		if st.BacklogLimit > out.BacklogLimit {
			out.BacklogLimit = st.BacklogLimit
		}
		out.Rejected += st.Rejected
		out.PublishTotal += st.PublishTotal
		out.JournalTotal += st.JournalTotal
		out.COWBytes += st.COWBytes
	}
	out.Rejected += l.rejected.Load()
	out.Objects = l.Len()
	return out
}

// Close drains and stops every shard's apply loop. Idempotent.
func (l *Live) Close() {
	var wg sync.WaitGroup
	for _, lv := range l.lives {
		wg.Add(1)
		go func(lv *core.Live) {
			defer wg.Done()
			lv.Close()
		}(lv)
	}
	wg.Wait()
}
