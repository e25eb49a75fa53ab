package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// quiet drops recovery notices so expected-corruption tests don't spam
// the test log.
var quiet = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

func testOptions(dir string) Options {
	return Options{
		Dir:    dir,
		Index:  core.Options{NX: 8, NY: 8},
		Logger: quiet,
	}
}

// rectFor derives a deterministic small valid rect for an id.
func rectFor(id spatial.ID) geom.Rect {
	rnd := rand.New(rand.NewSource(int64(id) + 7))
	x, y := rnd.Float64()*0.9, rnd.Float64()*0.9
	return geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05}
}

func allIDs(t *testing.T, ix *core.Index) []spatial.ID {
	t.Helper()
	ids, err := ix.SearchIDs(core.Query{Window: &geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func wantIDs(m map[spatial.ID]geom.Rect) []spatial.ID {
	ids := make([]spatial.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []spatial.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSyncPolicyParse(t *testing.T) {
	for _, want := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		got, err := ParseSyncPolicy(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

// TestDurableRoundTrip: mutations acked before a clean Close must all be
// there after reopening, without any checkpoint in between (pure log
// replay), and again after a checkpoint (no replay needed).
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = -1
	d, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointLoaded || info.ReplayedRecords != 0 {
		t.Fatalf("fresh dir reported prior state: %+v", info)
	}
	ref := make(map[spatial.ID]geom.Rect)
	for id := spatial.ID(1); id <= 60; id++ {
		r := rectFor(id)
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: r}); err != nil {
			t.Fatal(err)
		}
		ref[id] = r
	}
	for id := spatial.ID(1); id <= 60; id += 3 {
		found, _, err := d.Live().Delete(id, ref[id])
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", id, found, err)
		}
		delete(ref, id)
	}
	wantEpoch := d.Live().Snapshot().Epoch()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.ReplayedRecords == 0 || info.Epoch != wantEpoch {
		t.Fatalf("replay info = %+v, want epoch %d with replayed records", info, wantEpoch)
	}
	if got := allIDs(t, d2.Live().Snapshot()); !equalIDs(got, wantIDs(ref)) {
		t.Fatalf("recovered %d ids, want %d", len(got), len(ref))
	}
	if e, err := d2.Checkpoint(); err != nil || e != wantEpoch {
		t.Fatalf("checkpoint: epoch=%d err=%v, want %d", e, err, wantEpoch)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if !info.CheckpointLoaded || info.CheckpointEpoch != wantEpoch || info.ReplayedRecords != 0 {
		t.Fatalf("post-checkpoint recovery = %+v, want checkpoint %d and no replay", info, wantEpoch)
	}
	if got := allIDs(t, d3.Live().Snapshot()); !equalIDs(got, wantIDs(ref)) {
		t.Fatalf("checkpoint recovery lost ids")
	}
}

// TestRotationAndPrune: a tiny segment threshold forces rotations; a
// checkpoint must prune every sealed segment it covers.
func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 512
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(1); id <= 200; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	if before.Rotations == 0 || before.Segments < 2 {
		t.Fatalf("expected rotations with 512-byte segments, got %+v", before)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Segments != 1 || after.PrunedSegments == 0 {
		t.Fatalf("checkpoint left %d segments (pruned %d), want only the active one",
			after.Segments, after.PrunedSegments)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("on-disk segments after prune: %v (err %v)", segs, err)
	}
}

// TestAutoCheckpoint: crossing CheckpointEvery mutations must produce a
// checkpoint without any explicit call.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = 50
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for id := spatial.ID(1); id <= 120; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 120 mutations with CheckpointEvery=50: %+v", d.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := d.Stats(); s.CheckpointEpoch == 0 || s.CheckpointAge <= 0 {
		t.Fatalf("checkpoint stats not populated: %+v", s)
	}
}

// TestCorruptTailTruncated: flipping bytes in the last frame must not
// fail startup — recovery truncates to the last intact frame and serves
// everything before it.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	for id := spatial.ID(1); id <= 40; id++ {
		e, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)})
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 20; i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, info, err := Open(opts)
	if err != nil {
		t.Fatalf("startup failed on corrupt tail: %v", err)
	}
	defer d2.Close()
	if !info.TruncatedTail {
		t.Fatalf("recovery did not report truncation: %+v", info)
	}
	// Everything but (at least) the clobbered final record survives.
	got := allIDs(t, d2.Live().Snapshot())
	if len(got) >= 40 || len(got) < 30 {
		t.Fatalf("recovered %d of 40 inserts after tail corruption", len(got))
	}
	for i, id := range got {
		if id != spatial.ID(i+1) {
			t.Fatalf("recovered ids have a gap at %d: %v", i, got[:i+1])
		}
	}
	if info.Epoch != epochs[len(got)-1] {
		t.Fatalf("recovered epoch %d, want %d (last surviving ack)", info.Epoch, epochs[len(got)-1])
	}
}

// TestSeedAdoptedOnceThenIgnored: a seed index is checkpointed on first
// open; on reopen the recovered state wins and the seed is ignored.
func TestSeedAdoptedOnceThenIgnored(t *testing.T) {
	dir := t.TempDir()
	seed := core.New(core.Options{NX: 8, NY: 8})
	for id := spatial.ID(1); id <= 10; id++ {
		seed.Insert(spatial.Entry{ID: id, Rect: rectFor(id)})
	}
	opts := testOptions(dir)
	opts.Seed = seed
	d, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded {
		t.Fatalf("seed was not checkpointed: %+v", info)
	}
	if _, err := d.Live().Insert(spatial.Entry{ID: 11, Rect: rectFor(11)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a different (smaller) seed: prior state must win.
	opts.Seed = core.New(core.Options{NX: 8, NY: 8})
	d2, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Live().Snapshot().Len(); got != 11 {
		t.Fatalf("reopen with stale seed: %d objects, want 11", got)
	}
}

// TestRejectForeignJournal: Open must refuse a LiveOptions.Journal.
func TestRejectForeignJournal(t *testing.T) {
	opts := testOptions(t.TempDir())
	opts.Live.Journal = func(uint64, []core.Mutation) error { return nil }
	if _, _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("Open accepted a foreign journal hook: %v", err)
	}
}

// TestBadCheckpointFallsBack: a corrupted newest checkpoint must not
// block startup — recovery falls back to the previous one and replays
// the log over it.
func TestBadCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(1); id <= 20; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(21); id <= 30; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	epoch2, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Clobber the newest checkpoint body.
	path := filepath.Join(dir, checkpointName(epoch2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data); i++ {
		data[i] ^= 0xa5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, info, err := Open(opts)
	if err != nil {
		t.Fatalf("startup failed on bad checkpoint: %v", err)
	}
	defer d2.Close()
	if info.SkippedBadCkpts == 0 {
		t.Fatalf("recovery did not skip the bad checkpoint: %+v", info)
	}
	// The log was pruned up to the (bad) newest checkpoint, so frames
	// after the older checkpoint may be gone; everything still present
	// in log+older checkpoint must be served, which is at least the
	// first 20 inserts.
	got := allIDs(t, d2.Live().Snapshot())
	if len(got) < 20 {
		t.Fatalf("recovered only %d objects after checkpoint fallback", len(got))
	}
}

// TestScanSegmentCleanAndTorn exercises the frame scanner directly:
// clean scan returns every frame; truncating anywhere inside the last
// frame reports a corruption with the right resume offset.
func TestScanSegmentCleanAndTorn(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, segHeaderSize)
	copy(hdr[:4], segMagic)
	hdr[4] = segVersion
	buf.Write(hdr)
	goodEnd := []int64{segHeaderSize}
	for e := uint64(1); e <= 5; e++ {
		frame := encodeFrame(nil, e, []core.Mutation{
			{Entry: spatial.Entry{ID: spatial.ID(e), Rect: rectFor(spatial.ID(e))}},
		})
		buf.Write(frame)
		goodEnd = append(goodEnd, goodEnd[len(goodEnd)-1]+int64(len(frame)))
	}
	data := buf.Bytes()

	var epochs []uint64
	good, err := scanSegment(bytes.NewReader(data), func(e uint64, muts []core.Mutation) error {
		epochs = append(epochs, e)
		return nil
	})
	if err != nil || good != int64(len(data)) || len(epochs) != 5 {
		t.Fatalf("clean scan: good=%d err=%v epochs=%v", good, err, epochs)
	}

	for cut := goodEnd[4] + 1; cut < int64(len(data)); cut++ {
		good, err := scanSegment(bytes.NewReader(data[:cut]), func(uint64, []core.Mutation) error { return nil })
		if err == nil {
			t.Fatalf("cut at %d: torn frame not detected", cut)
		}
		if good != goodEnd[4] {
			t.Fatalf("cut at %d: good=%d, want %d", cut, good, goodEnd[4])
		}
	}
}

// TestJournalFailureAborts: an append error must reject the batch and
// leave the snapshot untouched.
func TestJournalFailureAborts(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Live().Insert(spatial.Entry{ID: 1, Rect: rectFor(1)}); err != nil {
		t.Fatal(err)
	}
	// Close the log behind the live index's back: the next journal append
	// fails, so the mutation must be rejected.
	if err := d.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Live().Insert(spatial.Entry{ID: 2, Rect: rectFor(2)}); err == nil {
		t.Fatal("insert was acked after the log failed")
	}
	if got := d.Live().Snapshot().Len(); got != 1 {
		t.Fatalf("failed journal mutated the index: %d objects", got)
	}
	d.Close()
}

// TestCheckpointKeepsAtMostTwo: repeated checkpoints leave at most the
// newest two checkpoint files on disk.
func TestCheckpointKeepsAtMostTwo(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := 0; round < 5; round++ {
		id := spatial.ID(round + 1)
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"))
	if len(ckpts) > 2 {
		t.Fatalf("%d checkpoint files on disk, want <= 2: %v", len(ckpts), ckpts)
	}
}

// TestStatsShape sanity-checks the durability stats counters.
func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Policy = SyncAlways
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for id := spatial.ID(1); id <= 5; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Policy != SyncAlways || s.AppendedRecords == 0 || s.Fsyncs == 0 ||
		s.LogBytes <= segHeaderSize || s.Segments != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestWriteCheckpointAtomic: a checkpoint write is all-or-nothing; a
// leftover .tmp from a simulated interruption is cleaned by recovery.
func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, checkpointName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint tmp survived recovery: %v", err)
	}
}

// TestWriteCheckpointSaveError: a checkpoint whose encoding fails is
// reported and never published under a checkpoint name.
func TestWriteCheckpointSaveError(t *testing.T) {
	dir := t.TempDir()
	errSave := fmt.Errorf("encode failed")
	err := WriteCheckpoint(dir, 3, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return errSave
	})
	if !errors.Is(err, errSave) {
		t.Fatalf("WriteCheckpoint error = %v, want the save error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed checkpoint left %v behind", entries)
	}
}

// TestDecodeFrameErrors: structural corruptions are errors, not panics.
func TestDecodeFrameErrors(t *testing.T) {
	ok := encodeFrame(nil, 3, []core.Mutation{
		{Entry: spatial.Entry{ID: 9, Rect: rectFor(9)}},
	})
	payload := ok[8:] // strip len+crc
	if _, _, err := decodeFrame(payload); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      payload[:5],
		"badKind":    append(append([]byte{}, payload[:8]...), 99),
		"trailing":   append(append([]byte{}, payload...), 0xff),
		"shortEntry": payload[:len(payload)-3],
		"nanRect": func() []byte {
			b := append([]byte{}, payload...)
			for i := 13; i < 21; i++ {
				b[i] = 0xff
			}
			return b
		}(),
	}
	for name, data := range cases {
		if _, _, err := decodeFrame(data); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	// Bulk count mismatch.
	bulk := encodeFrame(nil, 4, []core.Mutation{
		{Entry: spatial.Entry{ID: 1, Rect: rectFor(1)}},
		{Delete: true, Entry: spatial.Entry{ID: 2, Rect: rectFor(2)}},
	})[8:]
	bad := append([]byte{}, bulk...)
	bad[9]++ // count field
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("bulk count mismatch not detected")
	}
}

// TestRecoverEmptyDirIsCold: recovering a nonexistent state yields a
// fresh index at epoch zero.
func TestRecoverEmptyDirIsCold(t *testing.T) {
	ix, segs, info, err := Recover(t.TempDir(), core.Options{NX: 4, NY: 4}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.Epoch() != 0 || len(segs) != 0 || info.CheckpointLoaded {
		t.Fatalf("cold start: len=%d epoch=%d segs=%d info=%+v", ix.Len(), ix.Epoch(), len(segs), info)
	}
}

// writeRawSegment builds a segment file from frames for corruption tests.
func writeRawSegment(t *testing.T, path string, frames ...[]byte) {
	t.Helper()
	var buf bytes.Buffer
	hdr := make([]byte, segHeaderSize)
	copy(hdr[:4], segMagic)
	hdr[4] = segVersion
	buf.Write(hdr)
	for _, f := range frames {
		buf.Write(f)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRemovesOrphanSegments: segments after a truncated one are
// removed — replaying them would skip epochs.
func TestRecoverRemovesOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	f1 := encodeFrame(nil, 1, []core.Mutation{{Entry: spatial.Entry{ID: 1, Rect: rectFor(1)}}})
	f2bad := encodeFrame(nil, 2, []core.Mutation{{Entry: spatial.Entry{ID: 2, Rect: rectFor(2)}}})
	f2bad[len(f2bad)-1] ^= 0xff // corrupt the first segment's tail
	f3 := encodeFrame(nil, 3, []core.Mutation{{Entry: spatial.Entry{ID: 3, Rect: rectFor(3)}}})
	writeRawSegment(t, filepath.Join(dir, segmentName(1)), f1, f2bad)
	writeRawSegment(t, filepath.Join(dir, segmentName(3)), f3)

	ix, segs, info, err := Recover(dir, core.Options{NX: 4, NY: 4}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TruncatedTail || ix.Epoch() != 1 || ix.Len() != 1 {
		t.Fatalf("recovery after mid-log corruption: epoch=%d len=%d info=%+v", ix.Epoch(), ix.Len(), info)
	}
	if len(segs) != 1 {
		t.Fatalf("surviving segments = %v, want only the truncated first", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(3))); !os.IsNotExist(err) {
		t.Fatal("orphan segment after corruption was not removed")
	}
	// Idempotence: a second recovery finds a clean log.
	ix2, _, info2, err := Recover(dir, core.Options{NX: 4, NY: 4}, quiet)
	if err != nil || info2.TruncatedTail || ix2.Epoch() != 1 {
		t.Fatalf("second recovery not clean: epoch=%d info=%+v err=%v", ix2.Epoch(), info2, err)
	}
}

// TestConcurrentWritersDurable runs mutations from several goroutines
// under -race: batching, journaling and checkpointing must compose.
func TestConcurrentWritersDurable(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = 100
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 50
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				id := spatial.ID(w*per + i + 1)
				if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Live().Snapshot().Len(); got != writers*per {
		t.Fatalf("recovered %d objects, want %d", got, writers*per)
	}
}

// TestRecoverBadSegmentHeader: a file with a mangled header is treated
// as fully corrupt and truncated away, not a startup failure.
func TestRecoverBadSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("BOGUS!!!"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, segs, _, err := Recover(dir, core.Options{NX: 4, NY: 4}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || len(segs) != 0 {
		t.Fatalf("bad-header segment produced state: len=%d segs=%v", ix.Len(), segs)
	}
}

// TestAppendRollbackAfterPartialWrite: a failed append must leave no
// bytes in the segment — the apply loop reuses the epoch for the next
// batch, so a leftover partial (or complete) frame would corrupt the
// log. The rollback truncates back to the pre-frame offset and the
// next append lands exactly there.
func TestAppendRollbackAfterPartialWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, nil, 1<<20, SyncNone, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(id spatial.ID) []core.Mutation {
		return []core.Mutation{{Entry: spatial.Entry{ID: id, Rect: rectFor(id)}}}
	}
	if err := l.Append(1, mut(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, mut(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate Append's error path: partial frame bytes hit the file,
	// then the write "fails" and rollbackLocked undoes it.
	l.mu.Lock()
	pre := l.active.size
	n, err := l.f.Write([]byte("partial frame of a rejected batch"))
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.active.size += int64(n)
	l.rollbackLocked(pre, fmt.Errorf("injected write failure"))
	failed, size := l.failed, l.active.size
	l.mu.Unlock()
	if failed != nil {
		t.Fatalf("rollback poisoned a healthy log: %v", failed)
	}
	if size != pre {
		t.Fatalf("rollback left size %d, want %d", size, pre)
	}
	// The next published batch lands exactly where the rejected frame
	// started; the segment must scan back contiguously.
	if err := l.Append(3, mut(3)); err != nil {
		t.Fatal(err)
	}
	path := l.active.path
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var epochs []uint64
	if _, err := scanSegment(f, func(e uint64, _ []core.Mutation) error {
		epochs = append(epochs, e)
		return nil
	}); err != nil {
		t.Fatalf("segment corrupt after rollback: %v (epochs %v)", err, epochs)
	}
	if len(epochs) != 3 || epochs[0] != 1 || epochs[1] != 2 || epochs[2] != 3 {
		t.Fatalf("scanned epochs %v, want [1 2 3]", epochs)
	}
}

// TestAppendPoisonedWhenRollbackFails: if the frame cannot be written
// and cannot be rolled back either, the log must go sticky-failed —
// every later append rejected, the state visible in stats — rather
// than keep acking batches behind an untrustworthy tail.
func TestAppendPoisonedWhenRollbackFails(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, nil, 1<<20, SyncNone, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	mut := []core.Mutation{{Entry: spatial.Entry{ID: 1, Rect: rectFor(1)}}}
	if err := l.Append(1, mut); err != nil {
		t.Fatal(err)
	}
	// Yank the fd out from under the log: the next write fails and so
	// does the rollback truncate.
	l.f.Close()
	if err := l.Append(2, mut); err == nil {
		t.Fatal("append on a dead fd succeeded")
	}
	if err := l.Append(3, mut); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("poisoned log accepted another append: %v", err)
	}
	if s := l.Stats(); s.failed == nil {
		t.Fatal("poisoned state not visible in stats")
	}
	l.Close() // returns the sticky error; only releasing resources here
}

// TestAllCheckpointsUnreadableRefusesEmptyStart: when checkpoint files
// exist but none loads, recovery must fail loudly — and keep failing on
// retry, with every file left in place — never delete them and boot an
// empty index.
func TestAllCheckpointsUnreadableRefusesEmptyStart(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.SegmentBytes = 512 // force rotations so a checkpoint prunes
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(1); id <= 100; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(101); id <= 110; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints on disk: %v %v", ckpts, err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ckpts {
		if err := os.WriteFile(p, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The refusal must be persistent across retries (a supervisor will
	// restart the process) and must not move or delete anything — the
	// operator decides what to salvage.
	for attempt := 0; attempt < 2; attempt++ {
		if _, _, err := Open(opts); err == nil {
			t.Fatalf("attempt %d: Open healed all-bad checkpoints to an empty index instead of failing", attempt)
		}
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(after) != len(before) {
		t.Fatalf("refused recovery changed the directory: had %v, now %v", before, after)
	}
}

// TestBadCheckpointQuarantinedOnFallback: when an older checkpoint still
// loads, the unreadable newer one is quarantined as .bad — out of future
// recoveries' way, bytes preserved — rather than deleted.
func TestBadCheckpointQuarantinedOnFallback(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = -1
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(1); id <= 20; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id := spatial.ID(21); id <= 30; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	epoch2, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(epoch2))
	if err := os.WriteFile(path, []byte("clobbered"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, info, err := Open(opts)
	if err != nil {
		t.Fatalf("fallback to the older checkpoint failed: %v", err)
	}
	defer d2.Close()
	if !info.CheckpointLoaded || info.SkippedBadCkpts != 1 {
		t.Fatalf("recovery info = %+v, want older checkpoint loaded and one skipped", info)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("unreadable checkpoint was not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("unreadable checkpoint still in place under its original name")
	}
}

// TestCheckpointFailureRestoresCounter: a failed checkpoint write must
// put the mutations-since-checkpoint count back, so the automatic
// trigger refires promptly instead of waiting out a fresh interval.
func TestCheckpointFailureRestoresCounter(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.CheckpointEvery = 1000 // counting on, threshold never reached
	d, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const muts = 7
	for id := spatial.ID(1); id <= muts; id++ {
		if _, err := d.Live().Insert(spatial.Entry{ID: id, Rect: rectFor(id)}); err != nil {
			t.Fatal(err)
		}
	}
	// Block the checkpoint: a directory squatting on the tmp path makes
	// writeCheckpoint's create fail.
	epoch := d.Live().Snapshot().Epoch()
	block := filepath.Join(dir, checkpointName(epoch)+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded over a blocked tmp path")
	}
	if got := d.Stats().SinceCheckpoint; got != muts {
		t.Fatalf("failed checkpoint left SinceCheckpoint=%d, want %d restored", got, muts)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SinceCheckpoint; got != 0 {
		t.Fatalf("successful checkpoint left SinceCheckpoint=%d, want 0", got)
	}
}
