package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file is the concurrent-mutation stress test: N writer goroutines
// insert and delete through a Live index while M readers continuously
// query pinned snapshots. Run it under -race (make check does). Readers
// assert per-snapshot consistency — monotone epochs, no duplicates, no
// torn entries, full-scan count equal to Len, disk and kNN results equal
// to brute force over the same snapshot — and the main goroutine compares
// the index against a mutex-guarded reference at every quiescent point.

// stressRect derives a deterministic rectangle from an ID, so readers can
// verify that every entry they see is exactly what some writer inserted
// (a torn read would surface as a mismatched MBR).
func stressRect(id spatial.ID) geom.Rect {
	h := (uint64(id) + 1) * 0x9E3779B97F4A7C15
	x := float64((h>>48)&0xFFFF) / 65536 * 0.95
	y := float64((h>>32)&0xFFFF) / 65536 * 0.95
	w := float64((h>>24)&0xFF) / 256 * 0.04
	hh := float64((h>>16)&0xFF) / 256 * 0.04
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + hh}
}

// stressReference is the mutex-guarded ground truth the Live index is
// compared against at quiescent points.
type stressReference struct {
	mu   sync.Mutex
	live map[spatial.ID]geom.Rect
}

func (r *stressReference) set(id spatial.ID)   { r.mu.Lock(); r.live[id] = stressRect(id); r.mu.Unlock() }
func (r *stressReference) unset(id spatial.ID) { r.mu.Lock(); delete(r.live, id); r.mu.Unlock() }

func TestLiveStress(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		opsPerPhase  = 400 // per writer
		phases       = 3
		idsPerWriter = 1 << 20
	)
	seedRects := randRects(rand.New(rand.NewSource(1)), 1000, 0.04)
	// Re-home the seed under writer-disjoint IDs via the deterministic
	// rect function: seed IDs live in a reserved range.
	seed := New(Options{NX: 32, NY: 32, Space: unitSquare, Decompose: true})
	ref := &stressReference{live: make(map[spatial.ID]geom.Rect)}
	for i := range seedRects {
		id := spatial.ID(writers*idsPerWriter + i)
		seed.Insert(spatial.Entry{ID: id, Rect: stressRect(id)})
		ref.live[id] = stressRect(id)
	}
	seed.BuildDecomposed()

	l := NewLive(seed, LiveOptions{})
	defer l.Close()

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerFailures := make(chan string, readers)
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rnd := rand.New(rand.NewSource(seed))
			lastEpoch := uint64(0)
			fail := func(msg string) {
				select {
				case readerFailures <- msg:
				default:
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				epoch := snap.Epoch()
				if epoch < lastEpoch {
					fail("epoch went backwards")
					return
				}
				lastEpoch = epoch

				// Full scan: exact count, no duplicates, no torn entries.
				var all []spatial.Entry
				snap.Window(everything(), func(e spatial.Entry) { all = append(all, e) })
				if len(all) != snap.Len() {
					fail("full scan count != Len")
					return
				}
				seen := make(map[spatial.ID]bool, len(all))
				for _, e := range all {
					if seen[e.ID] {
						fail("duplicate result in full scan")
						return
					}
					seen[e.ID] = true
					if e.Rect != stressRect(e.ID) {
						fail("torn entry: MBR does not match its ID")
						return
					}
				}
				// Pinned snapshots are stable: a second count agrees.
				if snap.WindowCount(everything()) != len(all) {
					fail("snapshot changed between two scans")
					return
				}

				// Window and disk queries agree with brute force over the
				// same snapshot.
				w := randWindow(rnd, 0.2)
				if got, want := windowIDs(snap, w), spatial.BruteWindow(all, w); !equalIDSets(got, want) {
					fail("window result != brute force")
					return
				}
				c := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
				radius := rnd.Float64() * 0.2
				if got, want := diskIDs(snap, c, radius), spatial.BruteDisk(all, c, radius); !equalIDSets(got, want) {
					fail("disk result != brute force")
					return
				}

				// kNN distances match the brute-force k smallest.
				k := 1 + rnd.Intn(8)
				nb := snap.KNN(c, k)
				dists := make([]float64, 0, len(all))
				for _, e := range all {
					dists = append(dists, math.Sqrt(e.Rect.DistSqToPoint(c)))
				}
				sort.Float64s(dists)
				if len(nb) != min(k, len(all)) {
					fail("kNN result count wrong")
					return
				}
				for i, n := range nb {
					if n.Dist != dists[i] {
						fail("kNN distance does not match brute force")
						return
					}
				}
			}
		}(int64(rd + 100))
	}

	// Writers: each owns a disjoint ID range; inserts new objects and
	// deletes previously inserted ones, checking every ack against its
	// own bookkeeping (the apply loop must linearize exactly).
	for phase := 0; phase < phases; phase++ {
		var writerWG sync.WaitGroup
		for wr := 0; wr < writers; wr++ {
			writerWG.Add(1)
			go func(wr, phase int) {
				defer writerWG.Done()
				rnd := rand.New(rand.NewSource(int64(wr*1000 + phase)))
				base := spatial.ID(wr * idsPerWriter)
				next := spatial.ID(phase * opsPerPhase * 2)
				var mine []spatial.ID // currently inserted, this goroutine's range
				for op := 0; op < opsPerPhase; op++ {
					if len(mine) > 0 && rnd.Intn(3) == 0 {
						// Delete a random previously inserted object.
						i := rnd.Intn(len(mine))
						id := mine[i]
						found, _, err := l.Delete(id, stressRect(id))
						if err != nil || !found {
							t.Errorf("writer %d: delete %d: found=%v err=%v", wr, id, found, err)
							return
						}
						ref.unset(id)
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					} else {
						id := base + next
						next++
						if _, err := l.Insert(spatial.Entry{ID: id, Rect: stressRect(id)}); err != nil {
							t.Errorf("writer %d: insert %d: %v", wr, id, err)
							return
						}
						ref.set(id)
						mine = append(mine, id)
					}
				}
			}(wr, phase)
		}
		writerWG.Wait()

		// Quiescent point: all acks returned, so the reference and the
		// current snapshot must agree exactly.
		snap := l.Snapshot()
		ref.mu.Lock()
		if snap.Len() != len(ref.live) {
			t.Fatalf("phase %d: snapshot has %d objects, reference %d", phase, snap.Len(), len(ref.live))
		}
		count := 0
		mismatch := false
		snap.Window(everything(), func(e spatial.Entry) {
			count++
			if r, ok := ref.live[e.ID]; !ok || r != e.Rect {
				mismatch = true
			}
		})
		ref.mu.Unlock()
		if mismatch || count != snap.Len() {
			t.Fatalf("phase %d: snapshot contents diverge from reference (count=%d len=%d mismatch=%v)",
				phase, count, snap.Len(), mismatch)
		}
	}

	close(stop)
	readerWG.Wait()
	select {
	case msg := <-readerFailures:
		t.Fatal(msg)
	default:
	}

	st := l.Stats()
	if st.Pending != 0 || st.Applied != uint64(writers*opsPerPhase*phases) {
		t.Fatalf("final stats %+v, want pending 0 and applied %d", st, writers*opsPerPhase*phases)
	}
}

// equalIDSets compares two ID slices as sets (order-insensitive).
func equalIDSets(a, b []spatial.ID) bool {
	if len(a) != len(b) {
		return false
	}
	sortIDs(a)
	sortIDs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
