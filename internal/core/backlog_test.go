package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/spatial"
)

// TestLiveBacklogRejection pins the backpressure semantics
// deterministically: a Journal hook stalls the apply loop with one
// mutation pending, so a second submission against MaxBacklog=1 must be
// refused with ErrBacklogFull — immediately, without blocking — and the
// rejection must surface in Stats. Releasing the stall drains the
// backlog and submissions flow again.
func TestLiveBacklogRejection(t *testing.T) {
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{
		MaxBacklog: 1,
		Journal: func(epoch uint64, muts []Mutation) error {
			once.Do(func() { close(gate) })
			<-release
			return nil
		},
	})
	defer l.Close()

	ent := func(id spatial.ID) spatial.Entry {
		return spatial.Entry{ID: id, Rect: randRects(rand.New(rand.NewSource(int64(id))), 1, 0.05)[0]}
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Apply([]Mutation{{Entry: ent(1)}})
		done <- err
	}()
	<-gate // the apply loop is stalled inside Journal; pending == 1

	if _, err := l.Apply([]Mutation{{Entry: ent(2)}}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("second Apply error = %v, want ErrBacklogFull", err)
	}
	st := l.Stats()
	if st.BacklogLimit != 1 {
		t.Fatalf("BacklogLimit = %d, want 1", st.BacklogLimit)
	}
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", st.Pending)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled Apply failed: %v", err)
	}
	// Backlog drained: the valve reopens.
	if _, err := l.Apply([]Mutation{{Entry: ent(3)}}); err != nil {
		t.Fatalf("Apply after drain failed: %v", err)
	}
	if got := l.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected after drain = %d, want still 1", got)
	}
}

// TestLiveBacklogUnbounded: MaxBacklog 0 never rejects (the
// pre-backpressure behavior).
func TestLiveBacklogUnbounded(t *testing.T) {
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{})
	defer l.Close()
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		if _, err := l.Apply([]Mutation{{Entry: spatial.Entry{
			ID: spatial.ID(i), Rect: randRects(rnd, 1, 0.05)[0],
		}}}); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.BacklogLimit != 0 || st.Rejected != 0 {
		t.Fatalf("BacklogLimit/Rejected = %d/%d, want 0/0", st.BacklogLimit, st.Rejected)
	}
}
