package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// testGeoms is the dataset behind testIndex: a 10x10 grid of small
// squares with IDs j*10+i.
func testGeoms() []twolayer.Geometry {
	var geoms []twolayer.Geometry
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			x, y := float64(i)/10, float64(j)/10
			geoms = append(geoms, twolayer.NewPolygon(
				twolayer.Point{X: x, Y: y},
				twolayer.Point{X: x + 0.05, Y: y},
				twolayer.Point{X: x + 0.05, Y: y + 0.05},
				twolayer.Point{X: x, Y: y + 0.05},
			))
		}
	}
	return geoms
}

const fullWindow = `"window":{"min_x":-1,"min_y":-1,"max_x":2,"max_y":2}`

func TestV1WindowSemantics(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()

	// Unlimited: everything comes back, complete.
	var resp rangeResponse
	w := do(t, h, "POST", "/v1/window", `{`+fullWindow+`}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Count != 100 || len(resp.Results) != 100 || resp.Truncated {
		t.Fatalf("full window: count=%d results=%d truncated=%v", resp.Count, len(resp.Results), resp.Truncated)
	}
	if resp.Results[0].MBR == nil {
		t.Error("non-exact result has no MBR")
	}

	// A limit stops the evaluation: count == len(results) == limit,
	// truncated reports the cut.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"limit":30}`, &resp)
	if resp.Count != 30 || len(resp.Results) != 30 || !resp.Truncated {
		t.Fatalf("limited window: count=%d results=%d truncated=%v", resp.Count, len(resp.Results), resp.Truncated)
	}

	// count_only ignores the limit and counts everything.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"limit":30,"count_only":true}`, &resp)
	if resp.Count != 100 || len(resp.Results) != 0 || resp.Truncated {
		t.Fatalf("count_only: count=%d results=%d truncated=%v", resp.Count, len(resp.Results), resp.Truncated)
	}

	// Exact results omit the MBR.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":0.31,"max_y":0.01},"exact":true}`, &resp)
	if resp.Count != 4 {
		t.Fatalf("exact window: count=%d, want 4", resp.Count)
	}
	for _, r := range resp.Results {
		if r.MBR != nil {
			t.Fatal("exact result carries an MBR")
		}
	}

	// Trace attachment.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"trace":true}`, &resp)
	if resp.Trace == nil {
		t.Error("trace requested but absent")
	}

	// Validation errors.
	bad := []struct {
		body string
		want string
	}{
		{`{}`, `/v1/window requires the`},
		{`{"disk":{"center":{"x":0,"y":0},"radius":1}}`, `/v1/window requires the`},
		{`{` + fullWindow + `,"disk":{"center":{"x":0,"y":0},"radius":1}}`, `/v1/window requires the`},
		{`{` + fullWindow + `,"mode":"bogus"}`, `mode must be`},
		{`{` + fullWindow + `,"limit":-1}`, `limit must be`},
		{`{"window":{"min_x":0,"min_y":0,"max_x":"x","max_y":1}}`, ``},
	}
	for _, c := range bad {
		w := do(t, h, "POST", "/v1/window", c.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", c.body, w.Code)
		}
		if c.want != "" && !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("body %s: error %q does not mention %q", c.body, w.Body.String(), c.want)
		}
	}
}

func TestV1DiskSemantics(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()

	var resp rangeResponse
	do(t, h, "POST", "/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":2}}`, &resp)
	if resp.Count != 100 || resp.Truncated {
		t.Fatalf("full disk: count=%d truncated=%v", resp.Count, resp.Truncated)
	}

	// The limit folds into the evaluation, exactly as on /v1/window.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":2},"limit":10}`, &resp)
	if resp.Count != 10 || len(resp.Results) != 10 || !resp.Truncated {
		t.Fatalf("limited disk: count=%d results=%d truncated=%v", resp.Count, len(resp.Results), resp.Truncated)
	}

	for _, body := range []string{
		`{}`,
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
		`{"disk":{"center":{"x":0,"y":0},"radius":-1}}`,
		`{"disk":{"center":{"x":0,"y":0},"radius":1},"mode":"fast"}`,
	} {
		if w := do(t, h, "POST", "/v1/disk", body, nil); w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, w.Code)
		}
	}
}

// TestShardedServerEquivalence runs the same queries against an
// unsharded and a sharded server over the same dataset and requires
// identical responses.
func TestShardedServerEquivalence(t *testing.T) {
	geoms := testGeoms()
	opts := twolayer.Options{GridSize: 16, Decompose: true}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := New(Config{Index: twolayer.BuildGeoms(geoms, opts), Logger: logger})
	sharded := New(Config{
		Sharded: twolayer.BuildShardedGeoms(geoms, opts, twolayer.ShardedOptions{Shards: 4}),
		Logger:  logger,
	})

	queries := []struct{ path, body string }{
		{"/v1/window", `{"window":{"min_x":0.12,"min_y":0.12,"max_x":0.58,"max_y":0.58}}`},
		{"/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"exact":true}`},
		{"/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.3}}`},
		{"/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.3},"exact":true}`},
	}
	for _, q := range queries {
		var a, b rangeResponse
		if w := do(t, single.Handler(), "POST", q.path, q.body, &a); w.Code != http.StatusOK {
			t.Fatalf("%s unsharded: %d %s", q.path, w.Code, w.Body.String())
		}
		if w := do(t, sharded.Handler(), "POST", q.path, q.body, &b); w.Code != http.StatusOK {
			t.Fatalf("%s sharded: %d %s", q.path, w.Code, w.Body.String())
		}
		if a.Count != b.Count || len(a.Results) != len(b.Results) {
			t.Fatalf("%s %s: unsharded count=%d/%d, sharded count=%d/%d",
				q.path, q.body, a.Count, len(a.Results), b.Count, len(b.Results))
		}
		ids := func(rs []rangeResult) []int {
			out := make([]int, len(rs))
			for i, r := range rs {
				out[i] = int(r.ID)
			}
			sort.Ints(out)
			return out
		}
		ai, bi := ids(a.Results), ids(b.Results)
		for i := range ai {
			if ai[i] != bi[i] {
				t.Fatalf("%s: sorted ID sets differ at %d: %d vs %d", q.path, i, ai[i], bi[i])
			}
		}
	}

	// kNN agrees through both engines.
	var ka, kb knnResponse
	knn := `{"center":{"x":0.33,"y":0.71},"k":7}`
	do(t, single.Handler(), "POST", "/v1/knn", knn, &ka)
	do(t, sharded.Handler(), "POST", "/v1/knn", knn, &kb)
	if len(ka.Neighbors) != len(kb.Neighbors) {
		t.Fatalf("knn: %d vs %d neighbors", len(ka.Neighbors), len(kb.Neighbors))
	}
	for i := range ka.Neighbors {
		if ka.Neighbors[i].Distance != kb.Neighbors[i].Distance {
			t.Fatalf("knn neighbor %d distance %g vs %g", i, ka.Neighbors[i].Distance, kb.Neighbors[i].Distance)
		}
	}

	// Batch counts agree.
	var ba, bb batchResponse
	batch := `{"windows":[{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5},{"min_x":0.4,"min_y":0.4,"max_x":1,"max_y":1}]}`
	do(t, single.Handler(), "POST", "/v1/batch", batch, &ba)
	do(t, sharded.Handler(), "POST", "/v1/batch", batch, &bb)
	if fmt.Sprint(ba.Counts) != fmt.Sprint(bb.Counts) {
		t.Fatalf("batch counts: %v vs %v", ba.Counts, bb.Counts)
	}
	ba, bb = batchResponse{}, batchResponse{}
	batch = `{"mode":"queries","disks":[{"center":{"x":0.5,"y":0.5},"radius":0.3},{"center":{"x":0.1,"y":0.9},"radius":0.15}]}`
	do(t, single.Handler(), "POST", "/v1/batch", batch, &ba)
	do(t, sharded.Handler(), "POST", "/v1/batch", batch, &bb)
	if len(ba.Counts) != 2 || fmt.Sprint(ba.Counts) != fmt.Sprint(bb.Counts) {
		t.Fatalf("disk batch counts: %v vs %v", ba.Counts, bb.Counts)
	}

	// Traced queries expose per-shard spans in both the header and body.
	var resp rangeResponse
	w := do(t, sharded.Handler(), "POST", "/v1/window", `{`+fullWindow+`,"trace":true}`, &resp)
	if xt := w.Header().Get("X-Trace"); !strings.Contains(xt, "shards=") {
		t.Errorf("X-Trace = %q, want a shards= field", xt)
	}
	if resp.Trace == nil || len(resp.Trace.Shards) == 0 {
		t.Error("sharded trace has no shard spans")
	}

	// /stats gains the shards section.
	var st statsResponse
	do(t, sharded.Handler(), "GET", "/v1/stats", "", &st)
	if st.Shards == nil || st.Shards.Count != 4 || len(st.Shards.PerShard) != 4 {
		t.Fatalf("stats shards section = %+v", st.Shards)
	}
	var stSingle statsResponse
	do(t, single.Handler(), "GET", "/v1/stats", "", &stSingle)
	if stSingle.Shards != nil {
		t.Error("unsharded stats reports a shards section")
	}

	// The shard metric group registers only on sharded servers.
	m := scrapeMetrics(t, sharded.Handler())
	if m["twolayer_shard_count"] != 4 {
		t.Errorf("twolayer_shard_count = %v, want 4", m["twolayer_shard_count"])
	}
	for _, name := range []string{
		`twolayer_shard_objects{shard="0"}`,
		`twolayer_shard_queries_total{shard="3"}`,
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %s missing on sharded server", name)
		}
	}
	if _, ok := scrapeMetrics(t, single.Handler())["twolayer_shard_count"]; ok {
		t.Error("twolayer_shard_count registered on an unsharded server")
	}
}

func TestShardedLiveServer(t *testing.T) {
	sl, err := twolayer.NewShardedLive(
		twolayer.Options{GridSize: 16, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.LiveOptions{},
		twolayer.ShardedOptions{Shards: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	s := New(Config{ShardedLive: sl, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()

	// Insert a boundary-straddling object over HTTP, read it back.
	if w := do(t, h, "POST", "/v1/insert",
		`{"id":42,"mbr":{"min_x":0.1,"min_y":0.5,"max_x":0.9,"max_y":0.52}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body.String())
	}
	var resp rangeResponse
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`}`, &resp)
	if resp.Count != 1 || resp.Results[0].ID != 42 {
		t.Fatalf("after insert: count=%d results=%v", resp.Count, resp.Results)
	}

	var del struct {
		Found bool `json:"found"`
	}
	if w := do(t, h, "POST", "/v1/delete",
		`{"id":42,"mbr":{"min_x":0.1,"min_y":0.5,"max_x":0.9,"max_y":0.52}}`, &del); w.Code != http.StatusOK || !del.Found {
		t.Fatalf("delete: %d found=%v", w.Code, del.Found)
	}

	w := do(t, h, "POST", "/v1/bulk",
		`{"mutations":[{"op":"insert","id":1,"mbr":{"min_x":0.2,"min_y":0.2,"max_x":0.3,"max_y":0.3}},
		               {"op":"insert","id":2,"mbr":{"min_x":0.7,"min_y":0.7,"max_x":0.8,"max_y":0.8}}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", w.Code, w.Body.String())
	}

	var st statsResponse
	do(t, h, "GET", "/v1/stats", "", &st)
	if st.Live == nil {
		t.Fatal("sharded live stats has no live section")
	}
	if st.Shards == nil || st.Shards.Count != 4 {
		t.Fatalf("sharded live stats shards = %+v", st.Shards)
	}
	if st.Index.Objects != 2 {
		t.Fatalf("stats objects = %d, want 2", st.Index.Objects)
	}

	// Exact queries must be refused: live engines drop geometries.
	if w := do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"exact":true}`, nil); w.Code == http.StatusOK {
		t.Error("exact query accepted on a live sharded server")
	}
}

func TestShardedDurableServer(t *testing.T) {
	geoms := testGeoms()
	seed := twolayer.BuildShardedGeoms(geoms, twolayer.Options{GridSize: 16}, twolayer.ShardedOptions{Shards: 3})
	d, _, err := twolayer.OpenShardedDurable(
		twolayer.Options{GridSize: 16},
		twolayer.LiveOptions{},
		twolayer.ShardedDurableOptions{Dir: t.TempDir(), Seed: seed,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))},
		twolayer.ShardedOptions{Shards: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{ShardedDurable: d, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()

	var resp rangeResponse
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"count_only":true}`, &resp)
	if resp.Count != 100 {
		t.Fatalf("seeded query count = %d, want 100", resp.Count)
	}

	if w := do(t, h, "POST", "/v1/insert",
		`{"id":500,"mbr":{"min_x":0.4,"min_y":0.4,"max_x":0.6,"max_y":0.6}}`, nil); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body.String())
	}

	var ck struct {
		Epoch uint64 `json:"epoch"`
	}
	if w := do(t, h, "POST", "/v1/checkpoint", `{}`, &ck); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body.String())
	}

	var st statsResponse
	do(t, h, "GET", "/v1/stats", "", &st)
	if st.Durability == nil {
		t.Fatal("sharded durable stats has no durability section")
	}
	if st.Shards == nil || st.Shards.Count != 3 {
		t.Fatalf("sharded durable stats shards = %+v", st.Shards)
	}
	if st.Index.Objects != 101 {
		t.Fatalf("stats objects = %d, want 101", st.Index.Objects)
	}

	var hz struct {
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}
	do(t, h, "GET", "/v1/healthz", "", &hz)
	if hz.Status != "ok" || hz.Objects != 101 {
		t.Fatalf("healthz = %+v", hz)
	}
}
