// Package wal is the durability engine for live two-layer indices: a
// segmented write-ahead log of mutation batches, snapshot checkpointing
// through the core persistence format, and crash recovery that restores
// exactly the acknowledged state.
//
// The design follows the classic ARIES-style contract, reduced to what an
// MVCC index with a single-writer apply loop needs:
//
//   - Write-ahead: the apply loop's Journal hook (core.LiveOptions)
//     appends every mutation batch — tagged with the epoch it will
//     publish as — to the log before the batch is applied or any
//     submitter is acked. Depending on the sync policy the append is
//     fsynced per batch (SyncAlways), in the background (SyncInterval),
//     or left to the OS (SyncNone).
//   - Checkpointing: a checkpoint is one atomic snapshot file (the
//     core persist format, v2, whose header carries the snapshot's
//     epoch) written from an immutable published snapshot — no pause of
//     writers or readers. Segments whose every frame is at or below the
//     checkpoint epoch are pruned.
//   - Recovery: load the newest readable checkpoint, then replay the
//     log tail in epoch order, skipping frames the checkpoint already
//     covers. A torn or corrupt frame ends the log: the segment is
//     truncated at the last intact frame and later segments (which
//     would leave an epoch gap) are removed.
//
// Log layout: each segment file `wal-<firstEpoch>.seg` starts with an
// 8-byte header (magic "TLWL", version u32) followed by frames:
//
//	payloadLen u32 | crc32(payload) u32 | payload
//	payload: epoch u64 | kind u8 | body
//	  kind 1 (insert), 2 (delete): id u32 | 4xf64 MBR
//	  kind 3 (bulk): count u32, then per mutation op u8 | id u32 | 4xf64
//
// All integers and floats are little endian. A segment is named by the
// epoch of its first frame, so the covering checkpoint for a segment can
// be decided from file names alone.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/twolayer/twolayer/internal/core"
)

// SyncPolicy selects when appended frames are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs in the background every
	// Options.SyncEvery. An OS crash can lose up to that much of the
	// acknowledged tail; a process crash loses nothing (writes reach the
	// kernel before the ack).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every batch before it is acknowledged: no
	// acknowledged mutation is lost even across power failure.
	SyncAlways
	// SyncNone never fsyncs (the OS flushes on its own schedule).
	// Survives process crashes, not machine crashes.
	SyncNone
)

// String implements fmt.Stringer ("always", "interval", "none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spellings "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf(`wal: unknown fsync policy %q (want "always", "interval" or "none")`, s)
}

const (
	segMagic      = "TLWL"
	segVersion    = 1
	segHeaderSize = 8

	frameKindInsert = 1
	frameKindDelete = 2
	frameKindBulk   = 3

	// maxFramePayload bounds a decoded frame's claimed payload length; a
	// corrupt length field must not demand an arbitrary allocation.
	maxFramePayload = 64 << 20

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

func segmentName(firstEpoch uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstEpoch, segSuffix)
}

func checkpointName(epoch uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, epoch, ckptSuffix)
}

// segmentMeta is one on-disk segment file.
type segmentMeta struct {
	path  string
	first uint64 // first frame epoch (from the name)
	size  int64
}

// logStats is a point-in-time copy of the writer's counters.
type logStats struct {
	segments   int
	logBytes   int64
	appended   uint64
	appendedB  uint64
	fsyncs     uint64
	rotations  uint64
	pruned     uint64
	appendNS   int64 // cumulative wall time inside successful Appends
	syncNS     int64 // cumulative wall time inside fsync calls
	lastAppend time.Time
	failed     error // non-nil once the log is poisoned
}

// appendLog is the segmented append-only writer. All methods are safe
// for concurrent use, though in practice only the apply loop appends.
type appendLog struct {
	dir          string
	segmentBytes int64
	policy       SyncPolicy
	logger       *slog.Logger

	mu     sync.Mutex
	f      *os.File
	active segmentMeta
	sealed []segmentMeta // older segments, ascending by first epoch
	dirty  bool          // bytes written since the last fsync
	failed error         // sticky: set once the on-disk tail is untrustworthy
	buf    []byte        // frame encode scratch, reused across appends

	appended   uint64
	appendedB  uint64
	fsyncs     uint64
	rotations  uint64
	pruned     uint64
	appendNS   int64
	syncNS     int64
	lastAppend time.Time

	stop     chan struct{} // closes the interval syncer
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// openLog starts a fresh active segment for epochs >= nextEpoch, taking
// over the already-existing sealed segments for stats and pruning.
func openLog(dir string, nextEpoch uint64, sealed []segmentMeta,
	segmentBytes int64, policy SyncPolicy, syncEvery time.Duration,
	logger *slog.Logger) (*appendLog, error) {
	if logger == nil {
		logger = slog.Default()
	}
	l := &appendLog{
		dir:          dir,
		segmentBytes: segmentBytes,
		policy:       policy,
		logger:       logger,
		sealed:       sealed,
		stop:         make(chan struct{}),
	}
	if err := l.openSegment(nextEpoch); err != nil {
		return nil, err
	}
	if policy == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop(syncEvery)
	}
	return l, nil
}

// openSegment creates the active segment file. The name is asserted
// fresh (O_EXCL): recovery removes empty and fully-covered segments, so
// a collision would mean an epoch-accounting bug, not a dirty directory.
// The directory is fsynced once per new segment, so the file's entry is
// durable before any frame in it can be acknowledged under SyncAlways.
func (l *appendLog) openSegment(firstEpoch uint64) error {
	path := filepath.Join(l.dir, segmentName(firstEpoch))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = segmentMeta{path: path, first: firstEpoch, size: segHeaderSize}
	return nil
}

// encodeFrame appends one framed batch to buf and returns the extended
// slice. Batches of one mutation use the compact insert/delete kinds;
// anything else is a bulk frame.
func encodeFrame(buf []byte, epoch uint64, muts []core.Mutation) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	payload := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	putEntry := func(b []byte, m core.Mutation) []byte {
		b = binary.LittleEndian.AppendUint32(b, m.Entry.ID)
		for _, v := range [4]float64{m.Entry.Rect.MinX, m.Entry.Rect.MinY,
			m.Entry.Rect.MaxX, m.Entry.Rect.MaxY} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	if len(muts) == 1 {
		kind := byte(frameKindInsert)
		if muts[0].Delete {
			kind = frameKindDelete
		}
		buf = append(buf, kind)
		buf = putEntry(buf, muts[0])
	} else {
		buf = append(buf, frameKindBulk)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(muts)))
		for _, m := range muts {
			op := byte(0)
			if m.Delete {
				op = 1
			}
			buf = append(buf, op)
			buf = putEntry(buf, m)
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-payload))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[payload:]))
	return buf
}

// Append writes one batch frame, rotating the active segment first when
// it is already over the size threshold. Under SyncAlways the frame is
// fsynced before Append returns.
//
// A rejected batch must leave no trace: the apply loop does not advance
// the epoch on a journal error, so the next batch reuses this epoch, and
// any leftover bytes from the failed frame would corrupt the log (at
// best truncating acknowledged successors on recovery, at worst
// replaying the rejected batch in place of the acknowledged one). Any
// write or fsync failure therefore rolls the segment back to the
// pre-frame offset; if even the rollback fails, the log is poisoned and
// every later Append is rejected.
func (l *appendLog) Append(epoch uint64, muts []core.Mutation) error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if l.active.size >= l.segmentBytes && l.active.size > segHeaderSize {
		if err := l.rotateLocked(epoch); err != nil {
			return err
		}
	}
	pre := l.active.size
	l.buf = encodeFrame(l.buf[:0], epoch, muts)
	n, err := l.f.Write(l.buf)
	l.active.size += int64(n)
	if err != nil {
		l.rollbackLocked(pre, err)
		return fmt.Errorf("wal: appending frame: %w", err)
	}
	l.dirty = true
	if l.policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The frame reached the kernel but not stable storage; the
			// batch is rejected, so its bytes must not stay ahead of the
			// next frame. (syncLocked has already poisoned the log — a
			// Linux fsync failure drops the dirty pages, so a retried
			// fsync could succeed without persisting anything.)
			l.rollbackLocked(pre, err)
			return err
		}
	}
	l.appended++
	l.appendedB += uint64(n)
	l.lastAppend = time.Now()
	l.appendNS += l.lastAppend.Sub(start).Nanoseconds()
	return nil
}

// rollbackLocked truncates the active segment back to pre, discarding a
// frame whose write or fsync failed. If the rollback itself fails the
// leftover bytes cannot be removed, so the log is poisoned: accepting
// further frames behind a partial one would corrupt the epoch sequence.
func (l *appendLog) rollbackLocked(pre int64, cause error) {
	err := l.f.Truncate(pre)
	if err == nil {
		_, err = l.f.Seek(pre, io.SeekStart)
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: log failed (rollback after %v): %w", cause, err)
		l.logger.Error("wal: segment rollback failed; log poisoned, further appends will be rejected",
			"path", l.active.path, "offset", pre, "cause", cause, "err", err)
		return
	}
	l.active.size = pre
}

// rotateLocked seals the active segment and opens a new one whose first
// frame will be epoch. The seal includes an fsync so a sealed segment is
// never torn.
func (l *appendLog) rotateLocked(epoch uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, l.active)
	l.rotations++
	return l.openSegment(epoch)
}

// syncLocked fsyncs pending bytes. An fsync failure poisons the log:
// on Linux a failed fsync drops the dirty pages, so a later fsync can
// report success without the data ever reaching stable storage —
// retrying would turn silent data loss into an acknowledged write.
func (l *appendLog) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	t0 := time.Now()
	err := l.f.Sync()
	l.syncNS += time.Since(t0).Nanoseconds()
	if err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	l.dirty = false
	l.fsyncs++
	return nil
}

// Sync forces an fsync of the active segment.
func (l *appendLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.syncLocked()
}

func (l *appendLog) syncLoop(every time.Duration) {
	defer l.wg.Done()
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			// Background fsync errors never reach a writer on their own
			// (the write already succeeded), so they must not vanish:
			// syncLocked poisons the log — failing every later Append —
			// and the poisoning tick is logged here. Subsequent ticks see
			// l.failed and stay silent.
			if l.f != nil && l.failed == nil {
				if err := l.syncLocked(); err != nil {
					l.logger.Error("wal: background fsync failed; log poisoned, further appends will be rejected",
						"path", l.active.path, "err", err)
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// Prune removes sealed segments whose every frame is covered by a
// checkpoint at coveredEpoch: segment i is prunable when the next
// segment starts at or below coveredEpoch+1. Returns files removed.
func (l *appendLog) Prune(coveredEpoch uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 {
		next := l.active.first
		if len(l.sealed) > 1 {
			next = l.sealed[1].first
		}
		if next > coveredEpoch+1 {
			break
		}
		if err := os.Remove(l.sealed[0].path); err != nil && !os.IsNotExist(err) {
			break // leave it; a later checkpoint retries
		}
		l.sealed = l.sealed[1:]
		removed++
		l.pruned++
	}
	return removed
}

// Stats copies the counters.
func (l *appendLog) Stats() logStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := logStats{
		segments:   len(l.sealed) + 1,
		logBytes:   l.active.size,
		appended:   l.appended,
		appendedB:  l.appendedB,
		fsyncs:     l.fsyncs,
		rotations:  l.rotations,
		pruned:     l.pruned,
		appendNS:   l.appendNS,
		syncNS:     l.syncNS,
		lastAppend: l.lastAppend,
		failed:     l.failed,
	}
	if l.f == nil {
		s.segments--
	}
	for _, seg := range l.sealed {
		s.logBytes += seg.size
	}
	return s
}

// Close stops the interval syncer, fsyncs the tail, and closes the
// active segment. Close is idempotent.
func (l *appendLog) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// countReader tracks the offset consumed from an underlying reader.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
