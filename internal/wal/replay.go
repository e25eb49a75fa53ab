// Log replay and crash recovery: scanning segment frames with CRC and
// torn-write detection, and rebuilding an index from the newest readable
// checkpoint plus the log tail.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/twolayer/twolayer/internal/core"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// errCorrupt marks a frame that failed validation; the scanner reports
// it with the offset of the last intact frame boundary.
var errCorrupt = errors.New("wal: corrupt frame")

// RecoveryInfo reports what recovery found and did.
type RecoveryInfo struct {
	// CheckpointEpoch is the epoch of the checkpoint recovery started
	// from; 0 with CheckpointLoaded false means a cold start.
	CheckpointEpoch   uint64
	CheckpointLoaded  bool
	SkippedBadCkpts   int // unreadable checkpoint files skipped (newest first)
	ReplayedRecords   int // log frames applied on top of the checkpoint
	ReplayedMutations int // mutations inside those frames
	SkippedRecords    int // frames already covered by the checkpoint
	TruncatedTail     bool
	// Epoch is the recovered index's epoch: the last applied frame, or
	// the checkpoint epoch when the log held nothing newer.
	Epoch uint64
	// Segments are the surviving log segments, ascending; recovery
	// removes empty and checkpoint-covered segment files.
	Segments int
}

// decodeFrame parses and validates one frame payload. It returns the
// epoch and the decoded mutations; any structural problem — unknown
// kind, count/length mismatch, non-finite or inverted rectangle — is a
// corruption error, never a panic.
func decodeFrame(payload []byte) (epoch uint64, muts []core.Mutation, err error) {
	const entrySize = 4 + 4*8
	if len(payload) < 8+1 {
		return 0, nil, fmt.Errorf("%w: payload %d bytes", errCorrupt, len(payload))
	}
	epoch = binary.LittleEndian.Uint64(payload)
	kind := payload[8]
	body := payload[9:]

	readEntry := func(b []byte) (spatial.Entry, []byte, error) {
		if len(b) < entrySize {
			return spatial.Entry{}, nil, fmt.Errorf("%w: short entry", errCorrupt)
		}
		var e spatial.Entry
		e.ID = binary.LittleEndian.Uint32(b)
		e.Rect = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[28:])),
		}
		if !e.Rect.Valid() {
			return spatial.Entry{}, nil, fmt.Errorf("%w: invalid rect", errCorrupt)
		}
		return e, b[entrySize:], nil
	}

	switch kind {
	case frameKindInsert, frameKindDelete:
		e, rest, err := readEntry(body)
		if err != nil {
			return 0, nil, err
		}
		if len(rest) != 0 {
			return 0, nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(rest))
		}
		return epoch, []core.Mutation{{Delete: kind == frameKindDelete, Entry: e}}, nil
	case frameKindBulk:
		if len(body) < 4 {
			return 0, nil, fmt.Errorf("%w: short bulk header", errCorrupt)
		}
		count := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(count)*(1+entrySize) != uint64(len(body)) {
			return 0, nil, fmt.Errorf("%w: bulk count %d vs %d body bytes",
				errCorrupt, count, len(body))
		}
		muts = make([]core.Mutation, 0, count)
		for i := uint32(0); i < count; i++ {
			op := body[0]
			if op > 1 {
				return 0, nil, fmt.Errorf("%w: bulk op %d", errCorrupt, op)
			}
			e, rest, err := readEntry(body[1:])
			if err != nil {
				return 0, nil, err
			}
			body = rest
			muts = append(muts, core.Mutation{Delete: op == 1, Entry: e})
		}
		return epoch, muts, nil
	}
	return 0, nil, fmt.Errorf("%w: unknown kind %d", errCorrupt, kind)
}

// scanSegment streams the frames of one segment. fn is called for every
// intact frame; good is the byte offset just past the last intact frame
// (the truncation point when err is a corruption). err is nil at a clean
// end of file, errCorrupt-wrapped for torn or corrupt data, and a bare
// I/O error otherwise. fn returning an error stops the scan.
func scanSegment(r io.Reader, fn func(epoch uint64, muts []core.Mutation) error) (good int64, err error) {
	cr := &countReader{r: r}
	br := bufio.NewReader(cr)
	consumed := func(buffered int) int64 { return cr.n - int64(buffered) }

	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, fmt.Errorf("%w: short segment header", errCorrupt)
	}
	if string(hdr[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic %q", errCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", errCorrupt, v)
	}
	good = segHeaderSize

	var frameHdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frameHdr[:]); err != nil {
			if err == io.EOF {
				return good, nil // clean end
			}
			return good, fmt.Errorf("%w: torn frame header", errCorrupt)
		}
		length := binary.LittleEndian.Uint32(frameHdr[:4])
		crc := binary.LittleEndian.Uint32(frameHdr[4:])
		if length > maxFramePayload {
			return good, fmt.Errorf("%w: frame claims %d bytes", errCorrupt, length)
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, fmt.Errorf("%w: torn frame payload", errCorrupt)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return good, fmt.Errorf("%w: crc mismatch", errCorrupt)
		}
		epoch, muts, err := decodeFrame(payload)
		if err != nil {
			return good, err
		}
		if err := fn(epoch, muts); err != nil {
			return good, err
		}
		good = consumed(br.Buffered())
	}
}

// Files lists the paths of dir's checkpoint and log segment files,
// oldest first. A missing directory holds neither.
func Files(dir string) (checkpoints, segments []string, err error) {
	ckpts, segs, err := listState(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	for _, m := range ckpts {
		checkpoints = append(checkpoints, m.path)
	}
	for _, m := range segs {
		segments = append(segments, m.path)
	}
	return checkpoints, segments, err
}

// listState scans dir for checkpoint and segment files.
func listState(dir string) (ckpts, segs []segmentMeta, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		return v, err == nil
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		m := segmentMeta{path: filepath.Join(dir, e.Name()), size: info.Size()}
		if epoch, ok := parse(e.Name(), ckptPrefix, ckptSuffix); ok {
			m.first = epoch
			ckpts = append(ckpts, m)
		} else if epoch, ok := parse(e.Name(), segPrefix, segSuffix); ok {
			m.first = epoch
			segs = append(segs, m)
		}
	}
	byEpoch := func(a, b segmentMeta) int {
		switch {
		case a.first < b.first:
			return -1
		case a.first > b.first:
			return 1
		default:
			return 0
		}
	}
	slices.SortFunc(ckpts, byEpoch)
	slices.SortFunc(segs, byEpoch)
	return ckpts, segs, nil
}

// quarantine renames an unreadable checkpoint to <name>.bad: the file no
// longer matches the checkpoint pattern (so later recoveries ignore it)
// but its bytes survive for inspection.
func quarantine(logger *slog.Logger, path string, cause error) {
	bad := path + ".bad"
	if err := os.Rename(path, bad); err != nil {
		logger.Warn("unreadable checkpoint could not be quarantined",
			"path", path, "cause", cause, "err", err)
		return
	}
	logger.Warn("quarantined unreadable checkpoint", "path", path, "renamed", bad, "cause", cause)
}

// Recover rebuilds the index state stored in dir: recoverState with the
// one-index codec, whose cold start is an empty index of opts.
func Recover(dir string, opts core.Options, logger *slog.Logger) (*core.Index, []segmentMeta, RecoveryInfo, error) {
	return recoverState(dir, indexCodec(opts), logger)
}

// recoverState rebuilds the value stored in dir: the newest readable
// checkpoint, plus a replay of every log frame above the checkpoint
// epoch through the value's in-place Apply — the same routing the apply
// loop's Next uses. c.Empty is the starting value on a cold start (no
// checkpoint files at all). When checkpoint files exist but an older one
// loads, the unreadable newer ones are quarantined (renamed to .bad);
// when none loads, recoverState returns an error and leaves every file
// in place — the log alone cannot prove it reconstructs the checkpointed
// state, so healing to an empty value would silently destroy durable
// data.
//
// The log tail is healed, not rejected: the first torn or corrupt frame
// ends the replay, the segment is truncated back to the last intact
// frame, and any later segment files are removed (their frames would
// leave an epoch gap). Segment files that are empty or fully covered by
// the checkpoint are pruned. The surviving segments together with the
// returned value are exactly the acknowledged, durable state.
func recoverState[T any, P core.State[T]](dir string, c Codec[T, P], logger *slog.Logger) (P, []segmentMeta, RecoveryInfo, error) {
	if logger == nil {
		logger = slog.Default()
	}
	var info RecoveryInfo
	ckpts, segs, err := listState(dir)
	if err != nil {
		return nil, nil, info, err
	}

	// Newest readable checkpoint wins. An unreadable one is skipped, not
	// fatal — an older checkpoint can still cover it — but never deleted.
	var ix P
	type badCkpt struct {
		path  string
		cause error
	}
	var unreadable []badCkpt
	for i := len(ckpts) - 1; i >= 0 && ix == nil; i-- {
		f, err := os.Open(ckpts[i].path)
		if err == nil {
			var loaded P
			// 1 MiB, as WriteCheckpoint writes: a 45 MB checkpoint is
			// then ~45 reads, not ~11K.
			loaded, err = c.Load(bufio.NewReaderSize(f, 1<<20))
			f.Close()
			if err == nil && loaded.Epoch() != ckpts[i].first {
				err = fmt.Errorf("checkpoint epoch %d does not match file name", loaded.Epoch())
			}
			if err == nil {
				ix = loaded
				info.CheckpointEpoch = loaded.Epoch()
				info.CheckpointLoaded = true
				break
			}
		}
		info.SkippedBadCkpts++
		unreadable = append(unreadable, badCkpt{path: ckpts[i].path, cause: err})
	}
	if ix == nil && info.SkippedBadCkpts > 0 {
		// Checkpoint files exist but none is readable. The log alone
		// cannot reconstruct the checkpointed state: frames below the
		// checkpoint epoch may be pruned, and a seed index adopted at
		// epoch zero was checkpointed, never journaled. Healing to
		// whatever the log yields would silently discard durable state —
		// refuse instead, leaving every file untouched so a supervised
		// restart hits the same error until an operator intervenes.
		return nil, nil, info, fmt.Errorf(
			"wal: none of the %d checkpoint files in %s is readable; refusing to recover to an empty index (move them aside to force a log-only replay)",
			info.SkippedBadCkpts, dir)
	}
	// Recovery can proceed; quarantine the unreadable newer checkpoints
	// (renamed to .bad) so they are out of future recoveries' way but
	// their bytes survive for inspection.
	for _, b := range unreadable {
		quarantine(logger, b.path, b.cause)
	}
	if ix == nil {
		ix = c.Empty()
	}

	// Replay segments in epoch order. A segment whose successor starts
	// at or below the checkpoint epoch+1 holds only covered frames.
	surviving := segs[:0]
	stopped := false
	for i, seg := range segs {
		if stopped {
			// A truncation upstream orphans everything later.
			logger.Warn("removing log segment after corrupt predecessor", "path", seg.path)
			os.Remove(seg.path)
			continue
		}
		next := uint64(math.MaxUint64)
		if i+1 < len(segs) {
			next = segs[i+1].first
		}
		if info.CheckpointLoaded && next != math.MaxUint64 && next <= info.CheckpointEpoch+1 {
			os.Remove(seg.path) // fully covered by the checkpoint
			continue
		}

		f, err := os.Open(seg.path)
		if err != nil {
			return nil, nil, info, err
		}
		frames := 0
		good, scanErr := scanSegment(bufio.NewReader(f), func(epoch uint64, muts []core.Mutation) error {
			if epoch <= ix.Epoch() {
				info.SkippedRecords++
				return nil
			}
			if epoch != ix.Epoch()+1 {
				return fmt.Errorf("%w: epoch %d after %d", errCorrupt, epoch, ix.Epoch())
			}
			ix.Apply(epoch, muts, make([]bool, len(muts)))
			info.ReplayedRecords++
			info.ReplayedMutations += len(muts)
			frames++
			return nil
		})
		f.Close()
		if scanErr != nil {
			if !errors.Is(scanErr, errCorrupt) {
				return nil, nil, info, scanErr
			}
			logger.Warn("truncating log at first bad frame",
				"path", seg.path, "offset", good, "err", scanErr)
			if err := os.Truncate(seg.path, good); err != nil {
				return nil, nil, info, fmt.Errorf("wal: truncating corrupt tail: %w", err)
			}
			seg.size = good
			info.TruncatedTail = true
			stopped = true
		}
		if frames == 0 && (stopped || good <= segHeaderSize) {
			// Nothing usable in this file: empty leftover, or truncated
			// down to (at most) its header.
			os.Remove(seg.path)
			continue
		}
		surviving = append(surviving, seg)
	}

	info.Epoch = ix.Epoch()
	info.Segments = len(surviving)
	// Checkpoints that failed to load were quarantined above; the ones
	// older than the loaded checkpoint stay (dropOldCheckpoints keeps the
	// newest two). Stale temp files from interrupted writes are removed.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}
	return ix, surviving, info, nil
}
