package shard

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
	"github.com/twolayer/twolayer/internal/wal"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// writeV1 writes a version-1 directory the way the engine with one apply
// loop and one log per shard did: a version-1 manifest, then per shard a
// wal.Open log directory seeded with its slab of the data, journaling
// its part of every batch at its own epochs. Batches mix inserts that
// straddle the slab edges with deletes of seeded objects; shard 0 also
// checkpoints midway, so recovery loads checkpoints and replays logs.
// It returns the acknowledged objects.
func writeV1(t *testing.T, dir string, opts core.Options, shards int) map[spatial.ID]geom.Rect {
	t.Helper()
	d := testDataset(41, 300, 0.05)
	seed := Build(d, opts, shards)
	lay := seed.lay
	sp := lay.opts.Space
	if err := writeManifest(dir, manifest{Version: 1, Shards: shards, NX: lay.opts.NX, NY: lay.opts.NY,
		MinX: sp.MinX, MinY: sp.MinY, MaxX: sp.MaxX, MaxY: sp.MaxY}); err != nil {
		t.Fatal(err)
	}
	logs := make([]*wal.DurableLive, shards)
	for s := range logs {
		var err error
		logs[s], _, err = wal.Open(wal.Options{Dir: shardDir(dir, s), Index: lay.shardOpts(s),
			Seed: seed.shards[s], CheckpointEvery: -1, Logger: quietLog})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := map[spatial.ID]geom.Rect{}
	for _, e := range d.Entries {
		want[e.ID] = e.Rect
	}
	for b := 0; b < 20; b++ {
		var batch []core.Mutation
		for i := 0; i < 4; i++ {
			id := spatial.ID(1000 + 4*b + i)
			x := float64(i) / 4
			r := geom.Rect{MinX: x, MinY: 0.3, MaxX: x + 0.3, MaxY: 0.35}
			batch = append(batch, core.Mutation{Entry: spatial.Entry{ID: id, Rect: r}})
			want[id] = r
		}
		gone := spatial.ID(3 * b)
		batch = append(batch, core.Mutation{Delete: true, Entry: spatial.Entry{ID: gone, Rect: want[gone]}})
		delete(want, gone)
		for s := range logs {
			var sub []core.Mutation
			for _, m := range batch {
				if lo, hi := lay.rangeOf(m.Entry.Rect); lo <= s && s <= hi {
					sub = append(sub, m)
				}
			}
			if _, err := logs[s].Live().Apply(sub); err != nil {
				t.Fatal(err)
			}
		}
		if b == 10 {
			if _, err := logs[0].Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkMigrated opens dir and checks the engine holds exactly want,
// each object found once by a full-space search, in the version-2
// layout with no shard directory left; then that a write after the
// migration survives a reopen at the next epoch.
func checkMigrated(t *testing.T, dir string, shards int, want map[spatial.ID]geom.Rect) {
	t.Helper()
	all := core.Query{Window: &geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}}
	check := func(d *Durable) uint64 {
		t.Helper()
		snap := d.Live().Snapshot()
		got, err := snap.SearchIDs(all, nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		var ids []spatial.ID
		for id := range want {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(got, ids) {
			t.Fatalf("recovered %d IDs, want the %d acknowledged ones once each", len(got), len(ids))
		}
		if snap.Len() != len(want) || snap.Shards() != shards {
			t.Fatalf("recovered Len %d over %d shards, want %d over %d", snap.Len(), snap.Shards(), len(want), shards)
		}
		return snap.Epoch()
	}

	d, _, err := Open(wal.Options{Dir: dir, Logger: quietLog}, nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch := check(d)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "shard-*")); m.Version != manifestVersion || len(legacy) != 0 {
		t.Fatalf("after migration: manifest version %d, shard dirs %v", m.Version, legacy)
	}
	r := geom.Rect{MinX: 0.2, MinY: 0.9, MaxX: 0.8, MaxY: 0.95}
	if res, err := d.Live().Apply([]core.Mutation{{Entry: spatial.Entry{ID: 5000, Rect: r}}}); err != nil || res.Epoch != epoch+1 {
		t.Fatalf("write after migration: epoch %d, err %v; want epoch %d", res.Epoch, err, epoch+1)
	}
	want[5000] = r
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, info, err := Open(wal.Options{Dir: dir, Logger: quietLog}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := check(d); got != epoch+1 || info.ReplayedRecords != 1 {
		t.Fatalf("reopen at epoch %d replaying %d frames, want epoch %d and one frame", got, info.ReplayedRecords, epoch+1)
	}
}

// TestDurableMigratesPerShardLogs: a version-1 directory reopens with
// every acknowledged object, in the version-2 layout.
func TestDurableMigratesPerShardLogs(t *testing.T) {
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	dir := t.TempDir()
	want := writeV1(t, dir, opts, 3)
	checkMigrated(t, dir, 3, want)
}

// TestDurableMigrationKilled: a migration killed after it wrote the
// one-log checkpoint — before its manifest committed, or after that but
// before the shard directories were removed — recovers every
// acknowledged object on the next open.
func TestDurableMigrationKilled(t *testing.T) {
	opts := core.Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}}
	for _, committed := range []bool{false, true} {
		dir := t.TempDir()
		want := writeV1(t, dir, opts, 3)
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		e, err := legacyEngine(dir, m, opts, quietLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.WriteCheckpoint(dir, e.Epoch(), func(w io.Writer) error { return saveEngine(w, e) }); err != nil {
			t.Fatal(err)
		}
		if committed {
			m.Version = manifestVersion
			if err := writeManifest(dir, m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(shardDir(dir, 0)); err != nil {
			t.Fatalf("committed=%v: shard directory gone before the reopen: %v", committed, err)
		}
		checkMigrated(t, dir, 3, want)
	}
}
