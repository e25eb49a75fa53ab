package shard

import (
	"errors"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestShardedBacklogPreflight pins the sharded backpressure semantics:
// with one shard's apply loop stalled at its MaxBacklog bound, any batch
// involving that shard — including one spanning healthy shards — must be
// rejected whole by the pre-flight with ErrBacklogFull, before anything
// is dispatched, so the steady overloaded state never half-applies a
// batch across shards.
func TestShardedBacklogPreflight(t *testing.T) {
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	l := LiveFrom(Build(spatial.NewDataset(nil), opts, 2), core.LiveOptions{
		MaxBacklog: 1,
		// Test-only stall hook: the first journaled batch parks its
		// shard's apply loop until release closes.
		Journal: func(epoch uint64, muts []core.Mutation) error {
			once.Do(func() { close(gate) })
			<-release
			return nil
		},
	})
	defer l.Close()

	left := func(id spatial.ID) core.Mutation { // shard 0 only
		return core.Mutation{Entry: spatial.Entry{ID: id,
			Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}}}
	}
	spanning := func(id spatial.ID) core.Mutation { // both shards
		return core.Mutation{Entry: spatial.Entry{ID: id,
			Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.2}}}
	}

	done := make(chan error, 1)
	go func() {
		_, err := l.Apply([]core.Mutation{left(1)})
		done <- err
	}()
	<-gate // shard 0 is stalled with one pending mutation

	if _, err := l.Apply([]core.Mutation{left(2)}); !errors.Is(err, core.ErrBacklogFull) {
		t.Fatalf("shard-0 Apply error = %v, want ErrBacklogFull", err)
	}
	// A batch spanning shard 0 and the healthy shard 1 must be rejected
	// whole: nothing reaches shard 1.
	shard1Applied := l.lives[1].Stats().Applied
	if _, err := l.Apply([]core.Mutation{spanning(3)}); !errors.Is(err, core.ErrBacklogFull) {
		t.Fatalf("spanning Apply error = %v, want ErrBacklogFull", err)
	}
	if got := l.lives[1].Stats().Applied; got != shard1Applied {
		t.Fatalf("healthy shard applied %d mutations from a rejected batch", got-shard1Applied)
	}

	st := l.Stats()
	if st.BacklogLimit != 1 {
		t.Fatalf("BacklogLimit = %d, want 1", st.BacklogLimit)
	}
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2 (both pre-flight rejections)", st.Rejected)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled Apply failed: %v", err)
	}
	// Drained: the spanning batch now applies, to both shards.
	if _, err := l.Apply([]core.Mutation{spanning(4)}); err != nil {
		t.Fatalf("Apply after drain failed: %v", err)
	}
	if got := l.Snapshot().Len(); got != 2 {
		t.Fatalf("engine Len = %d, want 2", got)
	}
}
