package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

var unitSquare = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

func everything() geom.Rect {
	return geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}
}

// TestCloneCOWIsolation: mutating a clone must not change the original,
// across inserts, deletes, and tiles shared between epochs.
func TestCloneCOWIsolation(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ix, d := buildRandom(rnd, 2000, 0.05, Options{NX: 32, NY: 32, Space: unitSquare})
	wantIDs := windowIDs(ix, everything())

	cl := ix.CloneCOW()
	if cl.Epoch() != ix.Epoch()+1 {
		t.Fatalf("clone epoch = %d, want %d", cl.Epoch(), ix.Epoch()+1)
	}
	// Delete half the objects and insert some new ones through the clone.
	for id := 0; id < 1000; id++ {
		if !cl.Delete(spatial.ID(id), d.Entries[id].Rect) {
			t.Fatalf("clone delete %d not found", id)
		}
	}
	for i := 0; i < 500; i++ {
		r := randRects(rnd, 1, 0.05)[0]
		cl.Insert(spatial.Entry{ID: spatial.ID(5000 + i), Rect: r})
	}

	// Original unchanged, exactly.
	sameIDs(t, windowIDs(ix, everything()), wantIDs, "original after clone mutation")
	if ix.Len() != 2000 {
		t.Fatalf("original Len = %d, want 2000", ix.Len())
	}
	// Clone holds the mutated object set.
	if cl.Len() != 1500 {
		t.Fatalf("clone Len = %d, want 1500", cl.Len())
	}
	got := windowIDs(cl, everything())
	noDuplicates(t, got, "clone full scan")
	if len(got) != 1500 {
		t.Fatalf("clone full scan returned %d, want 1500", len(got))
	}
}

// TestCloneCOWNewTiles: populating previously empty tiles in a clone must
// not surface in the original (directory copy-on-write), for both dense
// and sparse directories.
func TestCloneCOWNewTiles(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		ix := withDirectory(sparse, func() *Index { return New(Options{NX: 16, NY: 16, Space: unitSquare}) })
		ix.Insert(spatial.Entry{ID: 0, Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.12, MaxY: 0.12}})
		cl := ix.CloneCOW()
		// Far corner: guaranteed new tiles.
		cl.Insert(spatial.Entry{ID: 1, Rect: geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.92, MaxY: 0.92}})
		if n := ix.WindowCount(everything()); n != 1 {
			t.Fatalf("sparse=%v: original sees %d objects, want 1", sparse, n)
		}
		if n := cl.WindowCount(everything()); n != 2 {
			t.Fatalf("sparse=%v: clone sees %d objects, want 2", sparse, n)
		}
	}
}

// TestLiveBasic: inserts and deletes through Live become visible in
// snapshots with monotonically increasing epochs.
func TestLiveBasic(t *testing.T) {
	l := NewLive(New(Options{NX: 16, NY: 16, Space: unitSquare}), LiveOptions{})
	defer l.Close()

	s0 := l.Snapshot()
	if s0.Epoch() != 0 || s0.Len() != 0 {
		t.Fatalf("seed snapshot epoch=%d len=%d, want 0/0", s0.Epoch(), s0.Len())
	}
	r := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	epoch, err := l.Insert(spatial.Entry{ID: 42, Rect: r})
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("insert published at epoch 0")
	}
	// Read-your-writes: the ack implies visibility.
	if n := l.Snapshot().WindowCount(everything()); n != 1 {
		t.Fatalf("after insert: %d objects, want 1", n)
	}
	// Old pinned snapshot still sees nothing.
	if n := s0.WindowCount(everything()); n != 0 {
		t.Fatalf("pinned snapshot sees %d objects, want 0", n)
	}

	found, epoch2, err := l.Delete(42, r)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if epoch2 <= epoch {
		t.Fatalf("delete epoch %d not after insert epoch %d", epoch2, epoch)
	}
	if found, _, _ := l.Delete(42, r); found {
		t.Fatal("second delete reported found")
	}
	if n := l.Snapshot().Len(); n != 0 {
		t.Fatalf("after delete: Len=%d, want 0", n)
	}

	st := l.Stats()
	if st.Applied != 3 || st.Publishes == 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLiveApplyBatch: a batch is all-or-nothing visible and reports
// per-mutation delete outcomes.
func TestLiveApplyBatch(t *testing.T) {
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{})
	defer l.Close()

	r1 := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	r2 := geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.7, MaxY: 0.7}
	res, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 1, Rect: r1}},
		{Entry: spatial.Entry{ID: 2, Rect: r2}},
		{Delete: true, Entry: spatial.Entry{ID: 1, Rect: r1}},
		{Delete: true, Entry: spatial.Entry{ID: 9, Rect: r2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false}
	for i, f := range res.Found {
		if f != want[i] {
			t.Fatalf("Found[%d] = %v, want %v", i, f, want[i])
		}
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}

	// Invalid rects are rejected up front, applying nothing.
	if _, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 3, Rect: geom.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}},
	}); err == nil {
		t.Fatal("invalid rect accepted")
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("Len after rejected batch = %d, want 1", n)
	}
}

// TestLiveClose: Close flushes accepted mutations and later submissions
// fail with ErrLiveClosed.
func TestLiveClose(t *testing.T) {
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{})
	if _, err := l.Insert(spatial.Entry{ID: 1, Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // idempotent
	if _, err := l.Insert(spatial.Entry{ID: 2, Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}}); !errors.Is(err, ErrLiveClosed) {
		t.Fatalf("insert after close: err = %v, want ErrLiveClosed", err)
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("final snapshot Len = %d, want 1", n)
	}
}

// TestBuildErr covers the error-returning build variant.
func TestBuildErr(t *testing.T) {
	d := spatial.NewDataset(randRects(rand.New(rand.NewSource(3)), 10, 0.1))
	if _, err := BuildErr(d, Options{NX: -1}); err == nil {
		t.Fatal("negative NX accepted")
	}
	if _, err := BuildErr(d, Options{Space: geom.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}}); err == nil {
		t.Fatal("degenerate space accepted")
	}
	// Degenerate data MBR without an explicit space errors instead of
	// panicking.
	pt := spatial.NewDataset([]geom.Rect{{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}})
	if _, err := BuildErr(pt, Options{}); err == nil {
		t.Fatal("degenerate data MBR accepted")
	}
	ix, err := BuildErr(d, Options{NX: 8, NY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ix.Len())
	}
}

// TestJoinable covers the error-returning join precondition.
func TestJoinable(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	a, _ := buildRandom(rnd, 100, 0.05, Options{NX: 8, NY: 8, Space: unitSquare})
	b, _ := buildRandom(rnd, 100, 0.05, Options{NX: 8, NY: 8, Space: unitSquare})
	c, _ := buildRandom(rnd, 100, 0.05, Options{NX: 16, NY: 16, Space: unitSquare})
	if err := Joinable(a, b); err != nil {
		t.Fatalf("compatible indices: %v", err)
	}
	if err := Joinable(a, a); !errors.Is(err, ErrSelfJoin) {
		t.Fatalf("self-join: err = %v, want ErrSelfJoin", err)
	}
	if err := Joinable(a, c); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("mismatched grids: err = %v, want ErrGridMismatch", err)
	}
}

// TestDiskUntil: early termination is honored and a full run matches Disk.
func TestDiskUntil(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 32, NY: 32, Space: unitSquare})
	center := geom.Point{X: 0.5, Y: 0.5}
	total := ix.DiskCount(center, 0.2)
	if total < 10 {
		t.Fatalf("weak test: only %d disk results", total)
	}
	q := Query{Disk: &geom.Disk{Center: center, Radius: 0.2}}
	var got []spatial.ID
	if complete, _ := ix.Search(q, func(e spatial.Entry) bool {
		got = append(got, e.ID)
		return true
	}); !complete {
		t.Fatal("uninterrupted disk Search reported early stop")
	}
	sameIDs(t, got, diskIDs(ix, center, 0.2), "disk Search full run")

	seen := 0
	completed, _ := ix.Search(q, func(spatial.Entry) bool {
		seen++
		return seen < 5
	})
	if completed {
		t.Fatal("interrupted disk Search reported completion")
	}
	if seen >= total {
		t.Fatalf("early stop scanned all %d results", seen)
	}
}

// TestLiveJournal: the Journal hook sees every batch, in order, with the
// epoch the batch publishes as; a journal error rejects the whole batch
// with nothing applied, and later batches proceed normally.
func TestLiveJournal(t *testing.T) {
	type logged struct {
		epoch uint64
		muts  []Mutation
	}
	var (
		mu      sync.Mutex
		journal []logged
		failNow bool
	)
	errInject := errors.New("disk full")
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{
		Journal: func(epoch uint64, muts []Mutation) error {
			mu.Lock()
			defer mu.Unlock()
			if failNow {
				return errInject
			}
			cp := make([]Mutation, len(muts))
			copy(cp, muts)
			journal = append(journal, logged{epoch, cp})
			return nil
		},
	})
	defer l.Close()

	r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	epoch1, err := l.Insert(spatial.Entry{ID: 1, Rect: r})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 2, Rect: r}},
		{Delete: true, Entry: spatial.Entry{ID: 1, Rect: r}},
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if len(journal) != 2 {
		t.Fatalf("journal has %d batches, want 2", len(journal))
	}
	if journal[0].epoch != epoch1 {
		t.Fatalf("journal epoch %d, ack epoch %d", journal[0].epoch, epoch1)
	}
	if journal[1].epoch != epoch1+1 {
		t.Fatalf("second batch epoch %d, want %d", journal[1].epoch, epoch1+1)
	}
	if len(journal[1].muts) != 2 || !journal[1].muts[1].Delete {
		t.Fatalf("second batch muts = %+v", journal[1].muts)
	}
	failNow = true
	mu.Unlock()

	// A failing journal rejects the batch: nothing applied, epoch frozen.
	before := l.Snapshot()
	if _, err := l.Insert(spatial.Entry{ID: 3, Rect: r}); !errors.Is(err, errInject) {
		t.Fatalf("err = %v, want wrapped %v", err, errInject)
	}
	after := l.Snapshot()
	if after.Epoch() != before.Epoch() || after.Len() != before.Len() {
		t.Fatalf("rejected batch changed snapshot: epoch %d->%d len %d->%d",
			before.Epoch(), after.Epoch(), before.Len(), after.Len())
	}

	// Recovery: once the journal accepts writes again, mutations flow.
	mu.Lock()
	failNow = false
	mu.Unlock()
	if _, err := l.Insert(spatial.Entry{ID: 4, Rect: r}); err != nil {
		t.Fatal(err)
	}
	if l.Snapshot().Len() != 2 { // IDs 2 and 4
		t.Fatalf("Len = %d, want 2", l.Snapshot().Len())
	}
}
