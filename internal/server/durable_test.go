package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// durableServer builds a durable-live server over dir; the caller reuses
// dir across restarts to exercise recovery.
func durableServer(t *testing.T, dir string) (*Server, *twolayer.DurableLive) {
	t.Helper()
	dl, _, err := twolayer.OpenDurable(
		twolayer.Options{GridSize: 16, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{
			Dir:             dir,
			CheckpointEvery: -1, // tests checkpoint explicitly
			Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close() })
	return New(Config{
		Durable: dl,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}), dl
}

func insertBody(id int) string {
	x := float64(id%10) / 10
	y := float64(id/10%10) / 10
	return fmt.Sprintf(`{"id":%d,"mbr":{"min_x":%g,"min_y":%g,"max_x":%g,"max_y":%g}}`,
		id, x, y, x+0.05, y+0.05)
}

// TestDurableServerRecovery: acked mutations served by one server
// incarnation survive into the next one over the same data dir.
func TestDurableServerRecovery(t *testing.T) {
	dir := t.TempDir()
	s, dl := durableServer(t, dir)
	for id := 1; id <= 25; id++ {
		var ins insertResponse
		w := do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), &ins)
		if w.Code != http.StatusOK {
			t.Fatalf("insert %d: status %d", id, w.Code)
		}
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableServer(t, dir)
	var win rangeResponse
	do(t, s2.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &win)
	if win.Count != 25 {
		t.Fatalf("recovered server serves %d objects, want 25", win.Count)
	}
}

// TestCheckpointEndpoint: POST /v1/checkpoint writes a checkpoint, reports
// its epoch, and the durability stats section reflects it.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir)
	for id := 1; id <= 10; id++ {
		do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), nil)
	}
	var ck struct {
		Epoch     uint64 `json:"epoch"`
		ElapsedUS int64  `json:"elapsed_us"`
	}
	w := do(t, s.Handler(), "POST", "/v1/checkpoint", "", &ck)
	if w.Code != http.StatusOK || ck.Epoch != 10 {
		t.Fatalf("checkpoint: status %d epoch %d, want 200 and epoch 10", w.Code, ck.Epoch)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint file on disk after POST /v1/checkpoint")
	}

	var st statsResponse
	do(t, s.Handler(), "GET", "/v1/stats", "", &st)
	if st.Durability == nil {
		t.Fatal("stats response has no durability section in durable mode")
	}
	if st.Durability.CheckpointEpoch != 10 || st.Durability.Checkpoints != 1 ||
		st.Durability.AppendedRecords != 10 || st.Durability.Segments == 0 {
		t.Fatalf("durability stats = %+v", st.Durability)
	}
	if st.Live == nil || st.Live.Epoch != 10 {
		t.Fatalf("durable mode must also report live stats, got %+v", st.Live)
	}
}

// TestCheckpointAbsentOutsideDurableMode: the endpoint and the stats
// section only exist with Config.Durable.
func TestCheckpointAbsentOutsideDurableMode(t *testing.T) {
	s, _ := liveServer(t, nil)
	w := do(t, s.Handler(), "POST", "/v1/checkpoint", "", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/checkpoint in plain live mode: status %d, want 404", w.Code)
	}
	var st statsResponse
	do(t, s.Handler(), "GET", "/v1/stats", "", &st)
	if st.Durability != nil {
		t.Fatal("plain live mode reports a durability stats section")
	}
}

// TestDurableServerCorruptTail: clobbering the log tail between two
// server incarnations must not prevent startup; the server comes up
// serving every record before the corruption.
func TestDurableServerCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, dl := durableServer(t, dir)
	for id := 1; id <= 20; id++ {
		do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), nil)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 16; i < len(data); i++ {
		data[i] ^= 0x5a
	}
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableServer(t, dir)
	var st statsResponse
	do(t, s2.Handler(), "GET", "/v1/stats", "", &st)
	if st.Durability == nil || !st.Durability.RecoveryTruncatedLog {
		t.Fatalf("recovery did not report log truncation: %+v", st.Durability)
	}
	var win rangeResponse
	do(t, s2.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &win)
	if win.Count < 15 || win.Count >= 20 {
		t.Fatalf("recovered %d of 20 inserts after tail corruption", win.Count)
	}
}

// TestDurableMetricsIncludeCheckpoint: the checkpoint endpoint is
// registered in the metrics table.
func TestDurableMetricsIncludeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir)
	do(t, s.Handler(), "POST", "/v1/checkpoint", "", nil)
	m := scrapeMetrics(t, s.Handler())
	if got := m[`twolayer_http_requests_total{endpoint="v1/checkpoint"}`]; got != 1 {
		t.Fatalf("checkpoint endpoint requests = %v, want 1", got)
	}
	// Durable mode also exports the WAL/checkpoint engine group.
	if m[`twolayer_checkpoints_total`] < 1 {
		t.Fatalf("twolayer_checkpoints_total = %v, want >= 1", m[`twolayer_checkpoints_total`])
	}
	if m[`twolayer_wal_segments`] < 1 {
		t.Fatalf("twolayer_wal_segments = %v, want >= 1", m[`twolayer_wal_segments`])
	}
}
