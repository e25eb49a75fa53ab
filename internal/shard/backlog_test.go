package shard

import (
	"errors"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestShardedBacklogWholeEngine pins the sharded backpressure
// semantics: MaxBacklog bounds the one apply loop of the whole engine.
// With the loop stalled at the bound, every batch — one in the stalled
// batch's shard, one in the other shard, one spanning both — is
// rejected whole with ErrBacklogFull, and none of them reaches any
// shard.
func TestShardedBacklogWholeEngine(t *testing.T) {
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	l := LiveFrom(Build(spatial.NewDataset(nil), opts, 2), core.LiveOptions{
		MaxBacklog: 1,
		// Test-only stall hook: the first journaled batch parks the
		// apply loop until release closes.
		Journal: func(epoch uint64, muts []core.Mutation) error {
			once.Do(func() { close(gate) })
			<-release
			return nil
		},
	})
	defer l.Close()

	mut := func(id spatial.ID, minX, maxX float64) core.Mutation {
		return core.Mutation{Entry: spatial.Entry{ID: id,
			Rect: geom.Rect{MinX: minX, MinY: 0.1, MaxX: maxX, MaxY: 0.2}}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Apply([]core.Mutation{mut(1, 0.1, 0.2)}) // shard 0
		done <- err
	}()
	<-gate // the loop is stalled with one pending mutation

	for _, m := range []core.Mutation{
		mut(2, 0.1, 0.2), // shard 0
		mut(3, 0.7, 0.8), // shard 1
		mut(4, 0.1, 0.9), // both
	} {
		if _, err := l.Apply([]core.Mutation{m}); !errors.Is(err, core.ErrBacklogFull) {
			t.Fatalf("Apply of %v: error %v, want ErrBacklogFull", m.Entry.Rect, err)
		}
	}
	st := l.Stats()
	if st.BacklogLimit != 1 || st.Rejected != 3 || st.Pending != 1 {
		t.Fatalf("BacklogLimit/Rejected/Pending = %d/%d/%d, want 1/3/1", st.BacklogLimit, st.Rejected, st.Pending)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled Apply failed: %v", err)
	}
	snap := l.Snapshot()
	if snap.Len() != 1 || snap.Epoch() != 1 || snap.Shard(0).Len() != 1 || snap.Shard(1).Len() != 0 {
		t.Fatalf("after the stall: Len %d, epoch %d, shards hold %d and %d; want only the stalled insert",
			snap.Len(), snap.Epoch(), snap.Shard(0).Len(), snap.Shard(1).Len())
	}
	// Drained: the spanning batch now applies, to both shards at once.
	res, err := l.Apply([]core.Mutation{mut(4, 0.1, 0.9)})
	if err != nil {
		t.Fatalf("Apply after drain failed: %v", err)
	}
	snap = l.Snapshot()
	if res.Epoch != 2 || snap.Epoch() != 2 || snap.Shard(0).Epoch() != 2 || snap.Shard(1).Epoch() != 2 {
		t.Fatalf("spanning batch at epoch %d: engine %d, shards %d and %d; want 2 throughout",
			res.Epoch, snap.Epoch(), snap.Shard(0).Epoch(), snap.Shard(1).Epoch())
	}
	if snap.Len() != 2 {
		t.Fatalf("engine Len = %d, want 2", snap.Len())
	}
}
