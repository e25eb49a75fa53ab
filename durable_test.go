package twolayer_test

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/spatial"
	"github.com/twolayer/twolayer/internal/wal"
)

// The durability tests write every directory over the unit square on a
// 16×16 grid, seeded with layoutSeed; reopening seeds use another grid,
// so a reopen that took the seed's layout would show in GridDims.
var (
	layoutOpts = twolayer.Options{GridSize: 16, Space: twolayer.Rect{MaxX: 1, MaxY: 1}}
	layoutSeed = []twolayer.Rect{
		{MinX: 0.05, MinY: 0.05, MaxX: 0.1, MaxY: 0.1},
		{MinX: 0.9, MinY: 0.9, MaxX: 0.95, MaxY: 0.95},
	}
	quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))
)

// layoutMutations is the acknowledged stream every written layout
// takes: 50 inserts spread over x, a third of them straddling the
// slab edges of three shards, then the delete of one seed object and
// one insert. Applied to layoutSeed it leaves IDs 1 and 100–150.
func layoutMutations() []twolayer.Mutation {
	var muts []twolayer.Mutation
	for i := 0; i < 50; i++ {
		x, w := float64(i)/50, 0.01
		if i%3 == 0 {
			w = 0.3
		}
		muts = append(muts, twolayer.Mutation{ID: twolayer.ID(100 + i),
			MBR: twolayer.Rect{MinX: x, MinY: 0.4, MaxX: x + w, MaxY: 0.45}})
	}
	return append(muts,
		twolayer.Mutation{Delete: true, ID: 0, MBR: layoutSeed[0]},
		twolayer.Mutation{ID: 150, MBR: twolayer.Rect{MinX: 0.2, MinY: 0.7, MaxX: 0.8, MaxY: 0.75}})
}

func layoutWant() []twolayer.ID {
	want := []twolayer.ID{1}
	for id := 100; id <= 150; id++ {
		want = append(want, twolayer.ID(id))
	}
	return want
}

// writeDurable cold-starts dir through OpenDurable with seed, applies
// the stream one mutation per call (each acknowledged alone) and closes.
func writeDurable(t *testing.T, dir string, seed *twolayer.Sharded) {
	t.Helper()
	d, _, err := twolayer.OpenDurable(layoutOpts, twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: dir, Seed: seed, CheckpointEvery: -1, Logger: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layoutMutations() {
		if res, err := d.Live().Apply([]twolayer.Mutation{m}); err != nil || !res.Found[0] {
			t.Fatalf("apply %+v: found=%v err=%v", m, res.Found, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeWAL writes the flat layout with the write-ahead log directly, as
// a caller of the internal wal package does.
func writeWAL(t *testing.T, dir string) {
	t.Helper()
	seed := core.Build(spatial.NewDataset(layoutSeed),
		core.Options{NX: 16, NY: 16, Space: layoutOpts.Space})
	d, _, err := wal.Open(wal.Options{Dir: dir, Seed: seed, CheckpointEvery: -1, Logger: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layoutMutations() {
		cm := core.Mutation{Delete: m.Delete, Entry: spatial.Entry{ID: m.ID, Rect: m.MBR}}
		if res, err := d.Live().Apply([]core.Mutation{cm}); err != nil || !res.Found[0] {
			t.Fatalf("apply %+v: found=%v err=%v", m, res.Found, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// layoutFiles lists dir's top level: the layout manifest, shard
// directories and WAL files it holds.
func layoutFiles(t *testing.T, dir string) (manifest bool, shardDirs, walFiles int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case name == "shards.json":
			manifest = true
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			shardDirs++
		case strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "checkpoint-"):
			walFiles++
		}
	}
	return manifest, shardDirs, walFiles
}

// TestDurableLayoutMatrix: the directory decides the layout. Each
// written layout — flat through OpenDurable with a OneShard seed, flat
// through the WAL directly, three shards under a manifest — is reopened
// with no seed, a one-shard seed and a two-shard seed of another grid.
// Every cell recovers every acknowledged insert and delete, once each,
// with the shard count and grid the directory was written with. Both
// layouts keep one log at the top level; only the sharded one has a
// manifest, and neither has per-shard directories. The (flat, two-shard seed) and
// (three shards, one-shard seed) cells are the restarts with a changed
// -shards that once came back with only the seed's objects.
func TestDurableLayoutMatrix(t *testing.T) {
	writers := []struct {
		name   string
		shards int
		write  func(t *testing.T, dir string)
	}{
		{"flat-OneShard", 1, func(t *testing.T, dir string) {
			writeDurable(t, dir, twolayer.OneShard(twolayer.BuildRects(layoutSeed, layoutOpts)))
		}},
		{"flat-wal", 1, writeWAL},
		{"manifest-S3", 3, func(t *testing.T, dir string) {
			writeDurable(t, dir, twolayer.BuildShardedRects(layoutSeed, layoutOpts, twolayer.ShardedOptions{Shards: 3}))
		}},
	}
	other := []twolayer.Rect{{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}}
	otherOpts := twolayer.Options{GridSize: 8, Space: twolayer.Rect{MaxX: 2, MaxY: 2}}
	reopens := []struct {
		name string
		seed func() *twolayer.Sharded
	}{
		{"no-seed", func() *twolayer.Sharded { return nil }},
		{"seed-S1", func() *twolayer.Sharded { return twolayer.OneShard(twolayer.BuildRects(other, otherOpts)) }},
		{"seed-S2", func() *twolayer.Sharded {
			return twolayer.BuildShardedRects(other, otherOpts, twolayer.ShardedOptions{Shards: 2})
		}},
	}
	want := layoutWant()
	all := twolayer.Rect{MinX: -1, MinY: -1, MaxX: 3, MaxY: 3}
	for _, w := range writers {
		for _, r := range reopens {
			t.Run(w.name+"/"+r.name, func(t *testing.T) {
				dir := t.TempDir()
				w.write(t, dir)
				d, info, err := twolayer.OpenDurable(twolayer.Options{}, twolayer.LiveOptions{},
					twolayer.DurableOptions{Dir: dir, Seed: r.seed(), Logger: quietLog})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if got := d.Live().Shards(); got != w.shards || !info.CheckpointLoaded {
					t.Fatalf("reopened with %d shards (checkpoint loaded %v), written with %d", got, info.CheckpointLoaded, w.shards)
				}
				snap := d.Snapshot()
				if nx, ny := snap.GridDims(); nx != 16 || ny != 16 {
					t.Fatalf("reopened grid %dx%d, written 16x16", nx, ny)
				}
				got, err := snap.SearchIDs(twolayer.Query{Window: &all}, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, "recovered IDs", sorted(got), want)
				if d.Live().Len() != len(want) {
					t.Fatalf("recovered Len = %d, want %d", d.Live().Len(), len(want))
				}
				manifest, shardDirs, walFiles := layoutFiles(t, dir)
				if w.shards == 1 && (manifest || shardDirs != 0 || walFiles == 0) {
					t.Fatalf("flat dir holds manifest=%v, %d shard dirs, %d WAL files", manifest, shardDirs, walFiles)
				}
				if w.shards > 1 && (!manifest || shardDirs != 0 || walFiles == 0) {
					t.Fatalf("sharded dir holds manifest=%v, %d shard dirs, %d top-level WAL files", manifest, shardDirs, walFiles)
				}
			})
		}
	}
}

// v1Manifest is a layout manifest of the per-shard-log format (version
// 1): three shards over layoutOpts' grid and space.
const v1Manifest = `{"version": 1, "shards": 3, "nx": 16, "ny": 16, "min_x": 0, "min_y": 0, "max_x": 1, "max_y": 1}`

// dirListing lists every file under dir with its size and mtime.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			t.Fatal(err)
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fmt.Sprintf("%s %d %v", path, info.Size(), info.ModTime()))
		return nil
	})
	return files
}

// refusedUnchanged opens dir with no seed, a one-shard and a
// three-shard seed: each open must fail with an error containing every
// one of want, and leave dir as it was.
func refusedUnchanged(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := dirListing(t, dir)
	for _, seed := range []*twolayer.Sharded{
		nil,
		twolayer.OneShard(twolayer.BuildRects(layoutSeed, layoutOpts)),
		twolayer.BuildShardedRects(layoutSeed, layoutOpts, twolayer.ShardedOptions{Shards: 3}),
	} {
		d, _, err := twolayer.OpenDurable(layoutOpts, twolayer.LiveOptions{},
			twolayer.DurableOptions{Dir: dir, Seed: seed, Logger: quietLog})
		if err == nil {
			d.Close()
			t.Fatal("OpenDurable opened a directory it must refuse")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("error does not name %q: %v", w, err)
			}
		}
	}
	if after := dirListing(t, dir); !slices.Equal(before, after) {
		t.Fatalf("refused opens changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestDurableMixedLayoutRefused: a directory holding both a
// per-shard-log manifest (version 1) and a flat top-level log is what an
// opener that let the caller pick the layout left behind after restarts
// that changed the shard count. Each half may hold acknowledged writes
// the other lacks, so every open must fail naming both, and change
// nothing (a version-1 manifest is otherwise migrated to one log).
func TestDurableMixedLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "shards.json"), []byte(v1Manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	writeWAL(t, filepath.Join(dir, "shard-000"))
	refusedUnchanged(t, dir, "shards.json", "write-ahead log")
}

// TestDurableShardDirsWithoutManifestRefused: shard log directories
// with no layout manifest beside them are refused, not cold-started
// from the seed — their logs may hold acknowledged writes.
func TestDurableShardDirsWithoutManifestRefused(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, filepath.Join(dir, "shard-000"))
	refusedUnchanged(t, dir, "shard-000", "shards.json")
}

// TestDurableTornCrossShardBulk: at two shards, the last frame of the
// one log is a bulk that moves every object across the slab edge. Cut
// at every byte offset inside that frame, the directory reopens with
// every object wholly at its old place (torn frame dropped) or, uncut,
// every one wholly at its new place, and a full-space SearchIDs finds
// each exactly once.
func TestDurableTornCrossShardBulk(t *testing.T) {
	const objects = 6
	from := func(i int) twolayer.Rect { // left of the slab edge at x = 0.5
		y := 0.1 + 0.1*float64(i)
		return twolayer.Rect{MinX: 0.3, MinY: y, MaxX: 0.35, MaxY: y + 0.05}
	}
	to := func(i int) twolayer.Rect { // right of it, one straddling it
		r := from(i)
		r.MinX, r.MaxX = 0.6, 0.65
		if i == 0 {
			r.MinX = 0.45
		}
		return r
	}
	var seed []twolayer.Rect
	var moves []twolayer.Mutation
	for i := 0; i < objects; i++ {
		seed = append(seed, from(i))
		moves = append(moves,
			twolayer.Mutation{Delete: true, ID: twolayer.ID(i), MBR: from(i)},
			twolayer.Mutation{ID: twolayer.ID(i), MBR: to(i)})
	}
	src := t.TempDir()
	d, _, err := twolayer.OpenDurable(layoutOpts, twolayer.LiveOptions{}, twolayer.DurableOptions{Dir: src,
		Seed: twolayer.BuildShardedRects(seed, layoutOpts, twolayer.ShardedOptions{Shards: 2}), Logger: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Live().Apply(moves); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(src, "wal-*"))
	if len(segs) != 1 {
		t.Fatalf("%d log segments, want one log of one segment", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	const segHeader = 8 // the bulk is the segment's only frame
	all := twolayer.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	for cut := segHeader; cut <= len(full); cut++ {
		dir := t.TempDir()
		entries, _ := os.ReadDir(src)
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Join(src, e.Name()) == segs[0] {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, _, err := twolayer.OpenDurable(twolayer.Options{}, twolayer.LiveOptions{},
			twolayer.DurableOptions{Dir: dir, Logger: quietLog})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		snap := d.Snapshot()
		d.Close()
		moved := cut == len(full)
		seen := map[twolayer.ID]int{}
		if _, err := snap.Search(twolayer.Query{Window: &all}, func(id twolayer.ID, mbr twolayer.Rect) bool {
			seen[id]++
			want := from(int(id))
			if moved {
				want = to(int(id))
			}
			if mbr != want {
				t.Errorf("cut %d: object %d at %v, want %v", cut, id, mbr, want)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < objects; i++ {
			if seen[twolayer.ID(i)] != 1 {
				t.Fatalf("cut %d (moved %v): object %d seen %d times", cut, moved, i, seen[twolayer.ID(i)])
			}
		}
		if len(seen) != objects || snap.Len() != objects {
			t.Fatalf("cut %d: %d distinct IDs, Len %d, want %d", cut, len(seen), snap.Len(), objects)
		}
	}
}

// TestDurableRecoveryAcrossReopens: a recovered engine keeps journaling
// under its directory's layout, so writes acknowledged after one
// reopen — with a seed of another shard count — survive the next.
func TestDurableRecoveryAcrossReopens(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		writeDurable(t, dir, twolayer.BuildShardedRects(layoutSeed, layoutOpts, twolayer.ShardedOptions{Shards: shards}))
		want := layoutWant()
		for round := 0; round < 2; round++ {
			seed := twolayer.BuildShardedRects(nil, layoutOpts, twolayer.ShardedOptions{Shards: 4 - shards})
			d, _, err := twolayer.OpenDurable(twolayer.Options{}, twolayer.LiveOptions{},
				twolayer.DurableOptions{Dir: dir, Seed: seed, Logger: quietLog})
			if err != nil {
				t.Fatal(err)
			}
			id := twolayer.ID(200 + round)
			if _, err := d.Live().Insert(id, twolayer.Rect{MinX: 0.1, MinY: 0.8, MaxX: 0.9, MaxY: 0.85}); err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
			if d.Live().Shards() != shards || d.Live().Len() != len(want) {
				t.Fatalf("S=%d round %d: %d shards, Len %d; want %d and %d",
					shards, round, d.Live().Shards(), d.Live().Len(), shards, len(want))
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
