package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
	"github.com/twolayer/twolayer/internal/wal"
)

func testDataset(seed int64, n int, maxSide float64) *spatial.Dataset {
	rnd := rand.New(rand.NewSource(seed))
	entries := make([]spatial.Entry, n)
	for i := range entries {
		x, y := rnd.Float64(), rnd.Float64()
		entries[i] = spatial.Entry{
			ID: spatial.ID(i),
			Rect: geom.Rect{
				MinX: x, MinY: y,
				MaxX: x + rnd.Float64()*maxSide, MaxY: y + rnd.Float64()*maxSide,
			},
		}
	}
	return &spatial.Dataset{Entries: entries}
}

func TestLayoutBoundaries(t *testing.T) {
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	lay := makeLayout(opts, 4)
	if lay.shardCount() != 4 {
		t.Fatalf("shardCount = %d, want 4", lay.shardCount())
	}
	// Columns split 4-4-4-4, so boundaries fall at 0.25, 0.5, 0.75.
	wantBounds := []float64{0.25, 0.5, 0.75}
	for i, b := range lay.bounds {
		if b != wantBounds[i] {
			t.Errorf("bounds[%d] = %g, want %g", i, b, wantBounds[i])
		}
	}
	// A coordinate exactly on a boundary belongs to the right shard
	// (half-open slabs, like tile ownership in the grid).
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.1, 0}, {0.25, 1}, {0.3, 1},
		{0.5, 2}, {0.75, 3}, {0.99, 3}, {1, 3}, {7, 3},
	}
	for _, c := range cases {
		if got := lay.shardOf(c.x); got != c.want {
			t.Errorf("shardOf(%g) = %d, want %d", c.x, got, c.want)
		}
	}
	// rangeOf covers every slab the rect touches, inclusive.
	if lo, hi := lay.rangeOf(geom.Rect{MinX: 0.2, MinY: 0, MaxX: 0.6, MaxY: 1}); lo != 0 || hi != 2 {
		t.Errorf("rangeOf = [%d,%d], want [0,2]", lo, hi)
	}
	if lo, hi := lay.rangeOf(geom.Rect{MinX: 0.3, MinY: 0, MaxX: 0.3, MaxY: 1}); lo != 1 || hi != 1 {
		t.Errorf("point rangeOf = [%d,%d], want [1,1]", lo, hi)
	}

	// Shard slabs tile the space: contiguous columns, exact global
	// extents at the outer edges.
	prevMax := opts.Space.MinX
	cols := 0
	for s := 0; s < lay.shardCount(); s++ {
		so := lay.shardOpts(s)
		if so.Space.MinX != prevMax {
			t.Errorf("shard %d MinX = %g, want %g", s, so.Space.MinX, prevMax)
		}
		prevMax = so.Space.MaxX
		cols += so.NX
	}
	if prevMax != opts.Space.MaxX {
		t.Errorf("last shard MaxX = %g, want %g", prevMax, opts.Space.MaxX)
	}
	if cols != opts.NX {
		t.Errorf("shards own %d columns, grid has %d", cols, opts.NX)
	}
}

func TestLayoutClamping(t *testing.T) {
	opts := core.Options{NX: 4, NY: 4, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	if got := makeLayout(opts, 99).shardCount(); got != 4 {
		t.Errorf("99 shards over 4 columns: shardCount = %d, want 4", got)
	}
	if got := makeLayout(opts, 0).shardCount(); got != 1 {
		t.Errorf("0 shards: shardCount = %d, want 1", got)
	}
	if got := makeLayout(opts, -3).shardCount(); got != 1 {
		t.Errorf("-3 shards: shardCount = %d, want 1", got)
	}
	// Uneven split: 7 columns over 3 shards must still cover all 7.
	lay := makeLayout(core.Options{NX: 7, NY: 4, Space: geom.Rect{MaxX: 1, MaxY: 1}}, 3)
	cols := 0
	for s := 0; s < lay.shardCount(); s++ {
		n := lay.shardOpts(s).NX
		if n < 1 {
			t.Errorf("shard %d owns %d columns", s, n)
		}
		cols += n
	}
	if cols != 7 {
		t.Errorf("shards own %d columns, want 7", cols)
	}
}

// TestFanoutDeduplication checks the home-shard ownership rule directly:
// a fan-out query over boundary-straddling objects reports each exactly
// once, and per-shard span result counts sum to the total.
func TestFanoutDeduplication(t *testing.T) {
	// Wide slabs guarantee heavy cross-shard replication.
	rnd := rand.New(rand.NewSource(11))
	entries := make([]spatial.Entry, 500)
	for i := range entries {
		x, y := rnd.Float64()*0.6, rnd.Float64()
		entries[i] = spatial.Entry{
			ID:   spatial.ID(i),
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.4, MaxY: y + 0.01},
		}
	}
	d := &spatial.Dataset{Entries: entries}
	e := Build(d, core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}, 8)

	w := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	var spans []Span
	seen := make(map[spatial.ID]int)
	if _, err := e.Search(core.Query{Window: &w}, func(ent spatial.Entry) bool {
		seen[ent.ID]++
		return true
	}, &spans); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(entries) {
		t.Fatalf("full-space query returned %d distinct IDs, want %d", len(seen), len(entries))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("ID %d reported %d times", id, n)
		}
	}
	total := 0
	for _, sp := range spans {
		total += sp.Results
	}
	if total != len(entries) {
		t.Errorf("span results sum to %d, want %d", total, len(entries))
	}
	if len(spans) != e.Shards() {
		t.Errorf("full-space query produced %d spans over %d shards", len(spans), e.Shards())
	}
}

// TestScatterBookkeeping pins what every query kind records about its
// shard scans, whichever path answers it: one Span per scanned shard in
// shard order, one single-shard or one fan-out query counted, and each
// scanned shard's queries and results counters advanced by one and by
// its Span's results.
func TestScatterBookkeeping(t *testing.T) {
	d := testDataset(21, 1500, 0.05)
	opts := core.Options{NX: 28, NY: 28, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	narrow := geom.Rect{MinX: 0.02, MinY: 0.1, MaxX: 0.05, MaxY: 0.9} // inside the first of 7 slabs
	wide := geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.95, MaxY: 0.8}
	disk := geom.Disk{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.3}
	center := geom.Point{X: 0.4, Y: 0.6}

	for _, shards := range []int{1, 2, 7} {
		e := Build(d, opts, shards)
		search := func(q core.Query) func(*[]Span) int {
			return func(spans *[]Span) int {
				n := 0
				if _, err := e.Search(q, func(spatial.Entry) bool { n++; return true }, spans); err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		count := func(q core.Query) func(*[]Span) int {
			return func(spans *[]Span) int {
				n, err := e.SearchCount(q, spans)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		// k is more than a shard of S > 1 holds, so every shard answers
		// (TestKNNReadsNearShards covers a k the first shard satisfies).
		knn := func(exact bool) func(*[]Span) int {
			return func(spans *[]Span) int {
				if got := e.KNN(center, 1000, exact, spans); len(got) != 1000 {
					t.Fatalf("S=%d: KNN returned %d neighbors", shards, len(got))
				}
				return -1 // every shard reports its own top k
			}
		}
		all := geom.Rect{MinX: -1, MaxX: 2}
		for _, tc := range []struct {
			name  string
			cover geom.Rect // the shards scanned are the ones this covers
			want  int       // distinct matches, -1 to skip
			run   func(*[]Span) int
		}{
			{"Search narrow", narrow, len(spatial.BruteWindow(d.Entries, narrow)), search(core.Query{Window: &narrow})},
			{"Search wide", wide, len(spatial.BruteWindow(d.Entries, wide)), search(core.Query{Window: &wide})},
			{"Search wide limit", wide, 9, search(core.Query{Window: &wide, Limit: 9})},
			{"Search exact", wide, len(spatial.BruteWindow(d.Entries, wide)), search(core.Query{Window: &wide, Exact: true})},
			{"SearchCount narrow", narrow, len(spatial.BruteWindow(d.Entries, narrow)), count(core.Query{Window: &narrow})},
			{"SearchCount wide", wide, len(spatial.BruteWindow(d.Entries, wide)), count(core.Query{Window: &wide})},
			{"SearchCount disk", disk.MBR(), len(spatial.BruteDisk(d.Entries, disk.Center, disk.Radius)), count(core.Query{Disk: &disk})},
			{"KNN", all, -1, knn(false)},
			{"KNNExact", all, -1, knn(true)},
		} {
			ctx := fmt.Sprintf("S=%d %s", shards, tc.name)
			lo, hi := e.lay.rangeOf(tc.cover)
			before := e.Stats()
			var spans []Span
			got := tc.run(&spans)
			after := e.Stats()

			if tc.want >= 0 && got != tc.want {
				t.Errorf("%s: %d results, want %d", ctx, got, tc.want)
			}
			wantSingle, wantFanout := uint64(0), uint64(1)
			if lo == hi {
				wantSingle, wantFanout = 1, 0
			}
			if ds, df := after.SingleShard-before.SingleShard, after.Fanout-before.Fanout; ds != wantSingle || df != wantFanout {
				t.Errorf("%s over shards [%d,%d]: single +%d fanout +%d, want +%d +%d", ctx, lo, hi, ds, df, wantSingle, wantFanout)
			}
			// A Limit ends the walk in the shard where it is reached.
			if tc.name == "Search wide limit" {
				for i, sum := 0, 0; i < len(spans); i++ {
					if sum += spans[i].Results; sum >= tc.want {
						hi = lo + i
						break
					}
				}
			}
			if len(spans) != hi-lo+1 {
				t.Fatalf("%s: %d spans over shards [%d,%d]", ctx, len(spans), lo, hi)
			}
			reported := make([]uint64, shards)
			scanned := make([]uint64, shards)
			sum := 0
			for i, sp := range spans {
				if sp.Shard != lo+i {
					t.Errorf("%s: span %d is shard %d, want %d", ctx, i, sp.Shard, lo+i)
				}
				scanned[sp.Shard], reported[sp.Shard] = 1, uint64(sp.Results)
				sum += sp.Results
			}
			if tc.want >= 0 && sum != got {
				t.Errorf("%s: spans report %d results, the query %d", ctx, sum, got)
			}
			for s := range after.PerShard {
				dq := after.PerShard[s].Queries - before.PerShard[s].Queries
				dr := after.PerShard[s].Results - before.PerShard[s].Results
				if dq != scanned[s] || dr != reported[s] {
					t.Errorf("%s: shard %d queries +%d results +%d, want +%d +%d", ctx, s, dq, dr, scanned[s], reported[s])
				}
			}
		}
	}
}

func TestCountDistinct(t *testing.T) {
	d := testDataset(12, 700, 0.3)
	e := Build(d, core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}, 5)
	if got := e.countDistinct(); got != d.Len() {
		t.Fatalf("countDistinct = %d, want %d", got, d.Len())
	}
	// Out-of-space entries clamp into border slabs and still count once.
	out := &spatial.Dataset{Entries: []spatial.Entry{
		{ID: 0, Rect: geom.Rect{MinX: -5, MinY: -5, MaxX: -4, MaxY: -4}},
		{ID: 1, Rect: geom.Rect{MinX: 4, MinY: 4, MaxX: 5, MaxY: 5}},
		{ID: 2, Rect: geom.Rect{MinX: -1, MinY: 0.5, MaxX: 2, MaxY: 0.6}},
	}}
	e = Build(out, core.Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}}, 4)
	if got := e.countDistinct(); got != 3 {
		t.Fatalf("countDistinct with out-of-space entries = %d, want 3", got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if hasManifest(dir) {
		t.Fatal("hasManifest on an empty dir")
	}
	m := manifest{Version: 1, Shards: 3, NX: 12, NY: 10, MinX: -2, MinY: -1, MaxX: 3, MaxY: 4}
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if !hasManifest(dir) {
		t.Fatal("hasManifest = false after writeManifest")
	}
	got, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("manifest round trip: got %+v, want %+v", got, m)
	}

	// Invalid layouts are rejected on read.
	if err := writeManifest(dir, manifest{Version: 1, Shards: 0, NX: 4, NY: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(dir); err == nil {
		t.Error("readManifest accepted a zero-shard manifest")
	}
}

// TestDurableManifestWins pins reopen behavior: requested layout and
// seed are superseded by the manifest on a non-empty directory.
func TestDurableManifestWins(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(13, 300, 0.05)
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	seed := Build(d, opts, 3)

	dur, _, err := Open(wal.Options{Dir: dir, Index: opts}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := dur.Live().Snapshot().Len(); got != d.Len() {
		t.Fatalf("seeded Len = %d, want %d", got, d.Len())
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for a different grid, and with a fresh seed of
	// another grid and shard count: the manifest must override all three.
	otherSeed := Build(testDataset(14, 10, 0.05),
		core.Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 2, MaxY: 2}}, 2)
	dur2, info, err := Open(wal.Options{Dir: dir,
		Index: core.Options{NX: 64, NY: 64, Space: geom.Rect{MaxX: 9, MaxY: 9}}}, otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	if got := dur2.Live().Snapshot().Shards(); got != 3 {
		t.Fatalf("reopen shards = %d, manifest pins 3", got)
	}
	if got := dur2.Live().Snapshot().Len(); got != d.Len() {
		t.Fatalf("reopen Len = %d, want %d (other seed must be ignored)", got, d.Len())
	}
	if !info.CheckpointLoaded {
		t.Fatalf("reopen RecoveryInfo = %+v, want the seed's checkpoint loaded", info)
	}
	snap := dur2.Live().Snapshot()
	if nx, ny := snap.GridDims(); nx != 16 || ny != 16 {
		t.Fatalf("reopen grid = %dx%d, manifest pins 16x16", nx, ny)
	}

	// The manifest is at the current version, beside the one log.
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion {
		t.Errorf("manifest version %d, want %d", m.Version, manifestVersion)
	}
	if ckpts, segs, _ := wal.Files(dir); len(ckpts) == 0 || len(segs) == 0 {
		t.Errorf("top level holds %d checkpoints and %d log segments, want both", len(ckpts), len(segs))
	}
}

// TestBatchCountsAcrossSlabEdges is the shard-level batch matrix: window
// and disk batch counts at S in {1, 2, 7} equal the naive scan for
// queries that stay inside one slab, straddle one, two and all slab
// edges, miss the space or are invalid — on a static engine and on a
// Live snapshot after mutations (count tables dropped), under both
// strategies and thread counts.
func TestBatchCountsAcrossSlabEdges(t *testing.T) {
	opts := core.Options{NX: 28, NY: 28, Space: geom.Rect{MaxX: 1, MaxY: 1}, Decompose: true}
	d := testDataset(31, 2500, 0.2) // sides up to 0.2: many objects cross a slab edge
	rnd := rand.New(rand.NewSource(32))

	windows := []geom.Rect{
		{MinX: 0.02, MinY: 0.1, MaxX: 0.1, MaxY: 0.9},                  // inside the first slab at every S
		{MinX: 1.0/7 - 0.02, MinY: 0.2, MaxX: 1.0/7 + 0.02, MaxY: 0.6}, // one edge at S=7
		{MinX: 0.45, MinY: 0, MaxX: 0.55, MaxY: 1},                     // the edge at S=2, one at S=7
		{MinX: 1.0/7 - 0.02, MinY: 0.3, MaxX: 3.0/7 + 0.02, MaxY: 0.7}, // three edges at S=7
		{MinX: 2.0 / 7, MinY: 0.3, MaxX: 4.0 / 7, MaxY: 0.7},           // begins and ends on an edge
		{MinX: 0.01, MinY: 0.4, MaxX: 0.99, MaxY: 0.5},                 // all edges
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},                         // sticks out everywhere
		{MinX: 0.6, MinY: 0.6, MaxX: 0.5, MaxY: 0.5},                   // invalid
		{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4},                           // misses the space
	}
	disks := []geom.Disk{
		{Center: geom.Point{X: 0.05, Y: 0.5}, Radius: 0.03},
		{Center: geom.Point{X: 1.0 / 7, Y: 0.5}, Radius: 0.05},
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.2},
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 0.49},
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: 3},
		{Center: geom.Point{X: 0.5, Y: 0.5}, Radius: -1},
	}
	for i := 0; i < 30; i++ {
		x, y := rnd.Float64(), rnd.Float64()
		windows = append(windows, geom.Rect{MinX: x, MinY: y, MaxX: x + rnd.Float64()*0.5, MaxY: y + rnd.Float64()*0.5})
		disks = append(disks, geom.Disk{Center: geom.Point{X: rnd.Float64(), Y: rnd.Float64()}, Radius: rnd.Float64() * 0.3})
	}

	check := func(ctx string, e *Engine, entries []spatial.Entry) {
		t.Helper()
		for _, strategy := range []core.BatchStrategy{core.QueriesBased, core.TilesBased} {
			for _, threads := range []int{1, 2} {
				gotW := e.BatchWindowCounts(windows, strategy, threads, nil)
				for q, w := range windows {
					want := 0
					if w.Valid() { // an inverted window matches nothing
						want = len(spatial.BruteWindow(entries, w))
					}
					if gotW[q] != want {
						t.Fatalf("%s %v threads=%d: window %d %v counted %d, want %d",
							ctx, strategy, threads, q, w, gotW[q], want)
					}
				}
				gotD := e.BatchDiskCounts(disks, strategy, threads, nil)
				for q, dk := range disks {
					want := 0
					if dk.Radius >= 0 { // a negative radius matches nothing
						want = len(spatial.BruteDisk(entries, dk.Center, dk.Radius))
					}
					if gotD[q] != want {
						t.Fatalf("%s %v threads=%d: disk %d %+v counted %d, want %d",
							ctx, strategy, threads, q, dk, gotD[q], want)
					}
				}
			}
		}
	}

	for _, shards := range []int{1, 2, 7} {
		e := Build(d, opts, shards)
		if e.Shards() != shards {
			t.Fatalf("built %d shards, want %d", e.Shards(), shards)
		}
		check(fmt.Sprintf("static S=%d", shards), e, d.Entries)

		l := LiveFrom(Build(d, opts, shards), core.LiveOptions{})
		var muts []core.Mutation
		var entries []spatial.Entry
		for i, ent := range d.Entries {
			if i%5 == 0 {
				muts = append(muts, core.Mutation{Delete: true, Entry: ent})
			} else {
				entries = append(entries, ent)
			}
		}
		for i, ent := range testDataset(33, 300, 0.3).Entries {
			ent.ID = spatial.ID(d.Len() + i)
			muts = append(muts, core.Mutation{Entry: ent})
			entries = append(entries, ent)
		}
		if _, err := l.Apply(muts); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("live S=%d", shards), l.Snapshot(), entries)
		l.Close()
	}
}

// TestQueryStatsSumsShards checks a 2-shard engine's query totals: 8
// goroutines run windows, disks, counts, batches and kNN, and the total
// must be the sum of the shards' totals, equal the serial run of the same
// queries on a twin engine, and count one query per shard evaluated —
// every routed shard scan, plus both shards of each batch. Run with
// -race.
func TestQueryStatsSumsShards(t *testing.T) {
	d := testDataset(41, 3000, 0.1)
	opts := core.Options{NX: 32, NY: 32, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	const workers, rounds = 8, 4
	run := func(e *Engine, w int) {
		rnd := rand.New(rand.NewSource(int64(w)))
		for range rounds {
			x, y := rnd.Float64()*0.8, rnd.Float64()*0.8
			win := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.2, MaxY: y + 0.2}
			disk := geom.Disk{Center: geom.Point{X: x, Y: y}, Radius: 0.1}
			e.Search(core.Query{Window: &win}, func(spatial.Entry) bool { return true }, nil)
			e.SearchCount(core.Query{Window: &win}, nil)
			e.SearchCount(core.Query{Disk: &disk}, nil)
			e.KNN(disk.Center, 5, false, nil)
			// The whole-space window puts both shards in the batch.
			e.BatchWindowCounts([]geom.Rect{win, opts.Space}, core.QueriesBased, 2, nil)
		}
	}
	concurrent, serial := Build(d, opts, 2), Build(d, opts, 2)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() { defer wg.Done(); run(concurrent, w) }()
		run(serial, w)
	}
	wg.Wait()

	got := concurrent.QueryStats()
	var sum core.Stats
	for s := range concurrent.Shards() {
		st := concurrent.Shard(s).QueryStats()
		sum.Add(&st)
	}
	if got != sum {
		t.Errorf("engine total %+v, shards sum to %+v", got, sum)
	}
	if want := serial.QueryStats(); got != want {
		t.Errorf("concurrent total %+v, serial total %+v", got, want)
	}
	var scans uint64
	for _, ps := range concurrent.Stats().PerShard {
		scans += ps.Queries
	}
	if want := int64(scans) + 2*workers*rounds; got.Queries != want || got.Results == 0 {
		t.Errorf("Queries = %d (results %d), want %d shard scans + %d batch shards",
			got.Queries, got.Results, scans, 2*workers*rounds)
	}
}

// TestStopEndsTheWalk: the covered shards are walked in order, and a
// query that is done — its Limit reached, or fn returning false — scans
// no further shard, so a full-space query on 7 shards that stops at its
// first match reads only the first shard.
func TestStopEndsTheWalk(t *testing.T) {
	d := testDataset(31, 700, 0.05)
	all := geom.Rect{MaxX: 1, MaxY: 1}
	for _, tc := range []struct {
		name string
		run  func(e *Engine) (int, bool)
	}{
		{"Search limit 1", func(e *Engine) (int, bool) {
			n := 0
			complete, err := e.Search(core.Query{Window: &all, Limit: 1}, func(spatial.Entry) bool { n++; return true }, nil)
			if err != nil {
				t.Fatal(err)
			}
			return n, complete
		}},
		{"Search fn stops", func(e *Engine) (int, bool) {
			n := 0
			complete, err := e.Search(core.Query{Window: &all}, func(spatial.Entry) bool { n++; return false }, nil)
			if err != nil {
				t.Fatal(err)
			}
			return n, complete
		}},
		{"SearchCount limit 1", func(e *Engine) (int, bool) {
			n, err := e.SearchCount(core.Query{Window: &all, Limit: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return n, false
		}},
	} {
		e := Build(d, core.Options{NX: 28, NY: 28, Space: all}, 7)
		if n, complete := tc.run(e); n != 1 || complete {
			t.Errorf("%s: %d results, complete %v; want 1, false", tc.name, n, complete)
		}
		for s, st := range e.Stats().PerShard {
			want := uint64(0)
			if s == 0 {
				want = 1
			}
			if st.Queries != want {
				t.Errorf("%s: shard %d scanned %d times, want %d", tc.name, s, st.Queries, want)
			}
		}
	}
}

// TestWalkDoesNotAllocate: a query scans its shards on the caller's
// goroutine with no per-query buffers, so a count across the slab edge
// of a 2-shard engine, and a one-shard engine's Search and SearchCount
// (the engine every unsharded server answers through), allocate nothing.
func TestWalkDoesNotAllocate(t *testing.T) {
	d := testDataset(32, 2000, 0.02)
	opts := core.Options{NX: 32, NY: 32, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	two, one := Build(d, opts, 2), Build(d, opts, 1)
	edge := geom.Rect{MinX: 0.4, MinY: 0.3, MaxX: 0.6, MaxY: 0.5} // the slab edge is x = 0.5
	if lo, hi := two.lay.rangeOf(edge); lo != 0 || hi != 1 {
		t.Fatalf("window covers shards [%d,%d], want [0,1]", lo, hi)
	}
	q := core.Query{Window: &edge}
	n := 0
	fn := func(spatial.Entry) bool { n++; return true }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"S=2 SearchCount", func() { _, _ = two.SearchCount(q, nil) }},
		{"S=1 SearchCount", func() { _, _ = one.SearchCount(q, nil) }},
		{"S=1 Search", func() { _, _ = one.Search(q, fn, nil) }},
	} {
		if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
			t.Errorf("%s allocates %.1f times per query, want 0", tc.name, avg)
		}
	}
	if n == 0 {
		t.Fatal("Search found nothing")
	}
}

// TestKNNReadsNearShards: kNN reads the shard holding q.X and then only
// the shards whose slabs lie within its k-th neighbor's distance of q.X
// in x, and still answers what the unsharded index answers — for points
// deep inside a slab, on and beside slab edges, and outside the space.
func TestKNNReadsNearShards(t *testing.T) {
	d := testDataset(33, 3000, 0.03)
	opts := core.Options{NX: 28, NY: 28, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	oracle := core.Build(d, opts)
	e := Build(d, opts, 7) // slab edges at multiples of 1/7
	edge := e.lay.bounds[2]
	for _, tc := range []struct {
		name  string
		q     geom.Point
		reads int // shards read at k = 8; 0 to skip
	}{
		{"mid-slab", geom.Point{X: edge + 0.07, Y: 0.5}, 1},
		{"on an edge", geom.Point{X: edge, Y: 0.5}, 2},
		{"just left of an edge", geom.Point{X: math.Nextafter(edge, 0), Y: 0.3}, 2},
		{"left of the space", geom.Point{X: -0.2, Y: 0.5}, 0},
		{"right of the space", geom.Point{X: 1.3, Y: 0.7}, 0},
	} {
		for _, k := range []int{1, 8} {
			before := e.Stats()
			got := e.KNN(tc.q, k, false, nil)
			want := oracle.KNN(tc.q, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d neighbors, want %d", tc.name, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist != want[i].Dist {
					t.Errorf("%s k=%d: neighbor %d at %g, want %g", tc.name, k, i, got[i].Dist, want[i].Dist)
				}
			}
			reads := 0
			for s, st := range e.Stats().PerShard {
				reads += int(st.Queries - before.PerShard[s].Queries)
			}
			if k == 8 && tc.reads > 0 && reads != tc.reads {
				t.Errorf("%s k=%d: read %d shards, want %d", tc.name, k, reads, tc.reads)
			}
		}
	}
}

// TestKNNOutsideSpace: for query points outside the space, where each
// shard bounds its rings by its objects' extent, kNN at S = 2 and 7
// answers the brute-force distances.
func TestKNNOutsideSpace(t *testing.T) {
	d := testDataset(35, 4000, 0.03)
	opts := core.Options{NX: 40, NY: 40, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	for _, shards := range []int{2, 7} {
		e := Build(d, opts, shards)
		for _, q := range []geom.Point{{X: 1.2, Y: 0.5}, {X: -0.3, Y: 1.4}, {X: 0.4, Y: -0.2}, {X: 2, Y: 2}} {
			want := make([]float64, len(d.Entries))
			for i, en := range d.Entries {
				want[i] = math.Sqrt(en.Rect.DistSqToPoint(q))
			}
			slices.Sort(want)
			for _, k := range []int{1, 10, 100} {
				got := e.KNN(q, k, false, nil)
				if len(got) != k {
					t.Fatalf("S=%d q=%v k=%d: %d neighbors", shards, q, k, len(got))
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i]) > 1e-12 {
						t.Fatalf("S=%d q=%v k=%d: neighbor %d at %g, want %g", shards, q, k, i, got[i].Dist, want[i])
					}
				}
			}
		}
	}
}
