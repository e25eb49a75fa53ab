package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// durableServer builds a durable-live server over dir. On a fresh dir it
// cold-starts an empty engine of the given shard count: one shard from
// the options alone (the flat layout), more from an empty seed of that
// many shards (a manifest beside the one log). The caller reuses dir
// across restarts to exercise recovery, where the directory's layout
// wins over the shard count asked for.
func durableServer(t *testing.T, dir string, shards int) (*Server, *twolayer.DurableLive) {
	t.Helper()
	opts := twolayer.Options{GridSize: 16, Space: twolayer.Rect{MaxX: 1, MaxY: 1}}
	do := twolayer.DurableOptions{
		Dir:             dir,
		CheckpointEvery: -1, // tests checkpoint explicitly
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if shards > 1 {
		do.Seed = twolayer.BuildShardedRects(nil, opts, twolayer.ShardedOptions{Shards: shards})
	}
	dl, _, err := twolayer.OpenDurable(opts, twolayer.LiveOptions{}, do)
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

// TestStatsRendersEveryFamily: on a durable two-shard server, which
// registers every metric group, each family twolayer_<section>_<field>
// of the registry is at <section>.<field> in GET /v1/stats, every
// section there comes from a family, and index.objects is the engine's
// object count.
func TestStatsRendersEveryFamily(t *testing.T) {
	s, dl := durableServer(t, t.TempDir(), 2)
	for id := 1; id <= 12; id++ {
		if w := do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), nil); w.Code != http.StatusOK {
			t.Fatalf("insert %d: status %d", id, w.Code)
		}
	}
	st := getStats(t, s.Handler())
	sections := make(map[string]bool)
	for _, name := range s.Metrics().Registry().Names() {
		section, field, _ := strings.Cut(strings.TrimPrefix(name, "twolayer_"), "_")
		sections[section] = true
		if !st.has(section + "." + field) {
			t.Errorf("family %s is not at %s.%s in /v1/stats", name, section, field)
		}
	}
	for section := range st {
		if !sections[section] {
			t.Errorf("/v1/stats section %q comes from no family", section)
		}
	}
	if got, want := st.num(t, "index.objects"), dl.Snapshot().Len(); got != float64(want) || want != 12 {
		t.Errorf("index.objects = %g, Len() = %d, want both 12", got, want)
	}
}

// TestDurableServerRecovery: acked mutations served by one server
// incarnation survive into the next one over the same data dir, on one
// shard and on two.
func TestDurableServerRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		s, dl := durableServer(t, dir, shards)
		for id := 1; id <= 25; id++ {
			var ins insertResponse
			w := do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), &ins)
			if w.Code != http.StatusOK {
				t.Fatalf("S=%d: insert %d: status %d", shards, id, w.Code)
			}
		}
		if err := dl.Close(); err != nil {
			t.Fatal(err)
		}

		s2, _ := durableServer(t, dir, shards)
		var win rangeResponse
		do(t, s2.Handler(), "POST", "/v1/window",
			`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &win)
		if win.Count != 25 {
			t.Fatalf("S=%d: recovered server serves %d objects, want 25", shards, win.Count)
		}
		st := getStats(t, s2.Handler())
		if !st.has("wal") || st.num(t, "recovery.replayed_records") == 0 || st.num(t, "shard.count") != float64(shards) {
			t.Fatalf("S=%d: recovered stats: recovery %v, shard count %v", shards, st["recovery"], st["shard"])
		}
	}
}

// TestCheckpointEndpoint: POST /v1/checkpoint writes one checkpoint
// file of the engine's snapshot, reports its epoch, and the wal and
// checkpoint stats sections reflect it. The ten inserts put ids 1–4 and 10 left of
// x = 0.5 and ids 5–9 right of it; with one or two shards each insert
// publishes one engine epoch.
func TestCheckpointEndpoint(t *testing.T) {
	for _, tc := range []struct {
		shards, epoch int
		manifest      bool
	}{
		{1, 10, false},
		{2, 10, true},
	} {
		dir := t.TempDir()
		s, _ := durableServer(t, dir, tc.shards)
		for id := 1; id <= 10; id++ {
			do(t, s.Handler(), "POST", "/v1/insert", insertBody(id), nil)
		}
		var ck struct {
			Epoch     uint64 `json:"epoch"`
			ElapsedUS int64  `json:"elapsed_us"`
		}
		w := do(t, s.Handler(), "POST", "/v1/checkpoint", "", &ck)
		if w.Code != http.StatusOK || ck.Epoch != uint64(tc.epoch) {
			t.Fatalf("S=%d: checkpoint: status %d epoch %d, want 200 and epoch %d", tc.shards, w.Code, ck.Epoch, tc.epoch)
		}
		ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
		if len(ckpts) == 0 {
			t.Fatalf("S=%d: checkpoint files %v after POST /v1/checkpoint", tc.shards, ckpts)
		}
		if _, err := os.Stat(filepath.Join(dir, "shards.json")); (err == nil) != tc.manifest {
			t.Fatalf("S=%d: layout manifest present = %v, want %v", tc.shards, err == nil, tc.manifest)
		}

		st := getStats(t, s.Handler())
		if !st.has("wal") {
			t.Fatalf("S=%d: stats response has no wal section in durable mode", tc.shards)
		}
		if st.num(t, "checkpoint.epoch") != float64(tc.epoch) || st.num(t, "checkpoints.total") != 1 ||
			st.num(t, "wal.appended_records_total") != 10 || st.num(t, "wal.segments") != 1 {
			t.Fatalf("S=%d: durability stats: wal %v, checkpoint %v, checkpoints %v",
				tc.shards, st["wal"], st["checkpoint"], st["checkpoints"])
		}
		if !st.has("live") || st.num(t, "live.epoch") != float64(tc.epoch) {
			t.Fatalf("S=%d: durable mode must also report live stats, got %v", tc.shards, st["live"])
		}
	}
}

// TestCheckpointAbsentOutsideDurableMode: the endpoint and the wal stats
// section only exist with Config.Durable.
func TestCheckpointAbsentOutsideDurableMode(t *testing.T) {
	s, _ := liveServer(t, nil)
	w := do(t, s.Handler(), "POST", "/v1/checkpoint", "", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/checkpoint in plain live mode: status %d, want 404", w.Code)
	}
	if st := getStats(t, s.Handler()); st.has("wal") || st.has("checkpoint") || st.has("recovery") {
		t.Fatal("plain live mode reports a durability stats section")
	}
}

// TestDurableServerCorruptTail: clobbering the log tail between two
// server incarnations must not prevent startup; the server comes up
// serving every record before the corruption.
func TestDurableServerCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, dl := durableServer(t, dir, 1)
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

	s2, _ := durableServer(t, dir, 1)
	if st := getStats(t, s2.Handler()); st.num(t, "recovery.truncated_log") != 1 {
		t.Fatalf("recovery did not report log truncation: %v", st["recovery"])
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
	for _, shards := range []int{1, 2} {
		s, _ := durableServer(t, t.TempDir(), shards)
		// A seeded shard checkpoints at open, so give each a publish.
		do(t, s.Handler(), "POST", "/v1/bulk", `{"mutations":[`+
			`{"op":"insert","id":1,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}},`+
			`{"op":"insert","id":2,"mbr":{"min_x":0.8,"min_y":0.8,"max_x":0.9,"max_y":0.9}}]}`, nil)
		do(t, s.Handler(), "POST", "/v1/checkpoint", "", nil)
		m := scrapeMetrics(t, s.Handler())
		if got := m[`twolayer_http_requests_total{endpoint="v1/checkpoint"}`]; got != 1 {
			t.Fatalf("S=%d: checkpoint endpoint requests = %v, want 1", shards, got)
		}
		// Durable mode also exports the WAL/checkpoint engine group.
		if m[`twolayer_checkpoints_total`] < 1 {
			t.Fatalf("S=%d: twolayer_checkpoints_total = %v, want >= 1", shards, m[`twolayer_checkpoints_total`])
		}
		if m[`twolayer_wal_segments`] < 1 {
			t.Fatalf("S=%d: twolayer_wal_segments = %v, want >= 1", shards, m[`twolayer_wal_segments`])
		}
	}
}

// TestShardedDurableServer: a two-shard durable server takes a
// slab-straddling insert, checkpoints, takes another, and comes back
// after a restart that asks for one shard with both inserts and two
// shards: the directory's layout wins.
func TestShardedDurableServer(t *testing.T) {
	dir := t.TempDir()
	s, dl := durableServer(t, dir, 2)
	h := s.Handler()
	if w := do(t, h, "POST", "/v1/insert",
		`{"id":500,"mbr":{"min_x":0.4,"min_y":0.4,"max_x":0.6,"max_y":0.6}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, h, "POST", "/v1/checkpoint", `{}`, nil); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, h, "POST", "/v1/insert", insertBody(7), nil); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body.String())
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}

	h = func() http.Handler { s, _ := durableServer(t, dir, 1); return s.Handler() }()
	st := getStats(t, h)
	if !st.has("wal") {
		t.Fatal("sharded durable stats has no wal section")
	}
	if got := st.num(t, "shard.count"); got != 2 {
		t.Fatalf("restart asking for one shard serves %g, the directory pins 2", got)
	}
	if objects, replayed := st.num(t, "index.objects"), st.num(t, "recovery.replayed_records"); objects != 2 || replayed != 1 {
		t.Fatalf("recovered objects = %g, replayed records = %g; want 2 and 1", objects, replayed)
	}
	var resp rangeResponse
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`}`, &resp)
	if resp.Count != 2 {
		t.Fatalf("recovered window count = %d, want 2 (each object once)", resp.Count)
	}

	var hz struct {
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}
	do(t, h, "GET", "/v1/healthz", "", &hz)
	if hz.Status != "ok" || hz.Objects != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
}
