package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// emptyLive returns an updatable one-shard engine over an empty
// unit-square grid of gridSize² tiles.
func emptyLive(gridSize int, lo twolayer.LiveOptions) *twolayer.ShardedLive {
	return twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil,
		twolayer.Options{GridSize: gridSize, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.ShardedOptions{Shards: 1}), lo)
}

// liveServer builds a live-mode server over an empty unit-square index.
func liveServer(t *testing.T, mutate func(*Config)) (*Server, *twolayer.ShardedLive) {
	t.Helper()
	l := emptyLive(16, twolayer.LiveOptions{})
	t.Cleanup(l.Close)
	cfg := Config{
		ShardedLive: l,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), l
}

func TestMutationEndpoints(t *testing.T) {
	s, _ := liveServer(t, nil)

	var ins insertResponse
	w := do(t, s.Handler(), "POST", "/v1/insert",
		`{"id":1,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}}`, &ins)
	if w.Code != http.StatusOK || ins.Epoch == 0 {
		t.Fatalf("insert: status %d epoch %d, want 200 and epoch > 0", w.Code, ins.Epoch)
	}

	// The insert is visible to a query issued afterward.
	var win rangeResponse
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &win)
	if win.Count != 1 {
		t.Fatalf("window after insert: count %d, want 1", win.Count)
	}

	var bulk bulkResponse
	w = do(t, s.Handler(), "POST", "/v1/bulk",
		`{"mutations":[
			{"op":"insert","id":2,"mbr":{"min_x":0.5,"min_y":0.5,"max_x":0.6,"max_y":0.6}},
			{"op":"delete","id":1,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}},
			{"op":"delete","id":99,"mbr":{"min_x":0.3,"min_y":0.3,"max_x":0.4,"max_y":0.4}}
		]}`, &bulk)
	if w.Code != http.StatusOK {
		t.Fatalf("bulk: status %d: %s", w.Code, w.Body.String())
	}
	if bulk.Epoch <= ins.Epoch {
		t.Fatalf("bulk epoch %d did not advance past %d", bulk.Epoch, ins.Epoch)
	}
	if len(bulk.Found) != 3 || !bulk.Found[0] || !bulk.Found[1] || bulk.Found[2] {
		t.Fatalf("bulk found = %v, want [true true false]", bulk.Found)
	}

	var del deleteResponse
	do(t, s.Handler(), "POST", "/v1/delete",
		`{"id":2,"mbr":{"min_x":0.5,"min_y":0.5,"max_x":0.6,"max_y":0.6}}`, &del)
	if !del.Found {
		t.Fatal("delete: object 2 not found")
	}
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &win)
	if win.Count != 0 {
		t.Fatalf("window after deletes: count %d, want 0", win.Count)
	}
}

func TestMutationValidation(t *testing.T) {
	s, l := liveServer(t, nil)

	// Inverted rectangle: 400 from every mutation endpoint.
	bad := `{"id":1,"mbr":{"min_x":0.5,"min_y":0.5,"max_x":0.1,"max_y":0.1}}`
	for _, path := range []string{"/v1/insert", "/v1/delete"} {
		if w := do(t, s.Handler(), "POST", path, bad, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s with inverted rect: status %d, want 400", path, w.Code)
		}
	}
	w := do(t, s.Handler(), "POST", "/v1/bulk",
		`{"mutations":[{"op":"insert","id":1,"mbr":{"min_x":0.5,"max_x":0.1}}]}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bulk with inverted rect: status %d, want 400", w.Code)
	}
	w = do(t, s.Handler(), "POST", "/v1/bulk",
		`{"mutations":[{"op":"upsert","id":1,"mbr":{"max_x":0.1,"max_y":0.1}}]}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("bulk with unknown op: status %d, want 400", w.Code)
	}
	w = do(t, s.Handler(), "POST", "/v1/bulk", `{"mutations":[]}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("empty bulk: status %d, want 400", w.Code)
	}

	// A closed Live maps to 503.
	l.Close()
	w = do(t, s.Handler(), "POST", "/v1/insert",
		`{"id":1,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("insert on closed live: status %d, want 503", w.Code)
	}
}

func TestMutationEndpointsAbsentInStaticMode(t *testing.T) {
	s := testServer(t, nil)
	w := do(t, s.Handler(), "POST", "/v1/insert",
		`{"id":1,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}}`, nil)
	if w.Code == http.StatusOK {
		t.Fatalf("static server accepted a mutation (status %d)", w.Code)
	}
}

func TestConfigRequiresExactlyOneIndex(t *testing.T) {
	for _, both := range []bool{false, true} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(both=%v) did not panic", both)
				}
			}()
			cfg := Config{}
			if both {
				cfg.Index = testIndex(t)
				cfg.ShardedLive = emptyLive(4, twolayer.LiveOptions{})
			}
			New(cfg)
		}()
	}
}

func TestLiveStatsExposed(t *testing.T) {
	s, _ := liveServer(t, nil)

	do(t, s.Handler(), "POST", "/v1/insert",
		`{"id":7,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}}`, nil)

	st := getStats(t, s.Handler())
	if !st.has("live") {
		t.Fatal("live stats section missing on a live-mode server")
	}
	if st.num(t, "live.epoch") == 0 || st.num(t, "live.applied_mutations_total") != 1 || st.num(t, "live.publishes_total") == 0 {
		t.Fatalf("live stats %v, want epoch > 0, applied 1, publishes > 0", st["live"])
	}
	if got := st.num(t, "index.objects"); got != 1 {
		t.Fatalf("index objects %g, want 1", got)
	}

	var hz map[string]any
	do(t, s.Handler(), "GET", "/healthz", "", &hz)
	if _, ok := hz["epoch"]; !ok {
		t.Fatal("healthz missing epoch in live mode")
	}

	// Static servers omit the live section.
	if getStats(t, testServer(t, nil).Handler()).has("live") {
		t.Fatal("static server reported live stats")
	}
}

func TestExactRejectedInLiveMode(t *testing.T) {
	s, _ := liveServer(t, nil)
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"exact":true}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("exact query in live mode: status %d, want 400", w.Code)
	}
}

// TestKNNHugeIDAllocation: a client may insert any object ID, so a kNN
// request near an object with a huge ID must cost what any other kNN
// request costs, not memory in proportion to the ID.
func TestKNNHugeIDAllocation(t *testing.T) {
	s, _ := liveServer(t, nil)
	const id = 1 << 26
	if w := do(t, s.Handler(), "POST", "/v1/insert",
		fmt.Sprintf(`{"id":%d,"mbr":{"min_x":0.5,"min_y":0.5,"max_x":0.5,"max_y":0.5}}`, id), nil); w.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", w.Code, w.Body.String())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := do(t, s.Handler(), "POST", "/v1/knn", `{"center":{"x":0.5,"y":0.5},"k":3}`, nil)
	runtime.ReadMemStats(&after)
	var resp knnResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil ||
		len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != id {
		t.Fatalf("knn: status %d body %s, want 200 with neighbor %d", w.Code, w.Body.String(), id)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("knn request allocated %d bytes, want < 1 MB", d)
	}
}

// TestConcurrentMutationsAndQueries exercises the live server end to end
// under -race: writers mutate over HTTP while readers run window, disk,
// kNN, batch, and stats requests against per-request pinned snapshots.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	s, _ := liveServer(t, nil)
	h := s.Handler()

	const writers, readers, ops = 3, 3, 60
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := wr*ops + i
				x := float64(id%97) / 100
				body := fmt.Sprintf(
					`{"id":%d,"mbr":{"min_x":%g,"min_y":%g,"max_x":%g,"max_y":%g}}`,
					id, x, x, x+0.02, x+0.02)
				if w := do(t, h, "POST", "/v1/insert", body, nil); w.Code != http.StatusOK {
					t.Errorf("insert %d: status %d", id, w.Code)
					return
				}
				if i%3 == 0 {
					if w := do(t, h, "POST", "/v1/delete", body, nil); w.Code != http.StatusOK {
						t.Errorf("delete %d: status %d", id, w.Code)
						return
					}
				}
			}
		}(wr)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				var win rangeResponse
				do(t, h, "POST", "/v1/window",
					`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &win)
				if win.Count != len(win.Results) && !win.Truncated {
					t.Error("window count does not match results")
					return
				}
				do(t, h, "POST", "/v1/disk",
					`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.3},"count_only":true}`, nil)
				do(t, h, "POST", "/v1/knn", `{"center":{"x":0.5,"y":0.5},"k":3}`, nil)
				do(t, h, "POST", "/v1/batch",
					`{"windows":[{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5},
					             {"min_x":0.5,"min_y":0.5,"max_x":1,"max_y":1}]}`, nil)
				do(t, h, "GET", "/v1/stats", "", nil)
			}
		}()
	}
	wg.Wait()

	// All acks returned: the final snapshot holds exactly the objects
	// whose insert was not followed by a delete (i%3 != 0).
	want := 0
	for i := 0; i < ops; i++ {
		if i%3 != 0 {
			want += writers
		}
	}
	var win rangeResponse
	do(t, h, "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &win)
	if win.Count != want {
		t.Fatalf("final count %d, want %d", win.Count, want)
	}
	if got := getStats(t, h).num(t, "live.pending_mutations"); got != 0 {
		t.Fatalf("pending mutations %g after quiescence, want 0", got)
	}
}

// TestLayerSeconds checks that every request through the wire codec is
// timed once per layer: decode whenever the body is read, encode only
// when an answer is written.
func TestLayerSeconds(t *testing.T) {
	s, _ := liveServer(t, nil)
	h := s.Handler()
	mbr := `{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}`
	for _, req := range [][2]string{
		{"/v1/insert", `{"id":1,"mbr":` + mbr + `}`},
		{"/v1/window", `{"window":` + mbr + `}`},
		{"/v1/window", `not json`},
		{"/v1/disk", `{"disk":{"center":{"x":0.1,"y":0.1},"radius":0.1}}`},
		{"/v1/batch", `{"windows":[` + mbr + `]}`},
		{"/v1/bulk", `{"mutations":[{"op":"delete","id":1,"mbr":` + mbr + `}]}`},
		{"/v1/delete", `{"id":1,"mbr":` + mbr + `}`},
	} {
		do(t, h, "POST", req[0], req[1], nil)
	}
	m := scrapeMetrics(t, h)
	for _, ep := range codecEndpoints {
		wantDecode, wantEncode := 1.0, 1.0
		if ep == "v1/window" {
			wantDecode = 2
		}
		decode := m[`twolayer_layer_seconds_count{layer="decode",endpoint="`+ep+`"}`]
		encode := m[`twolayer_layer_seconds_count{layer="encode",endpoint="`+ep+`"}`]
		if decode != wantDecode || encode != wantEncode {
			t.Errorf("%s: decode/encode observations %v/%v, want %v/%v", ep, decode, encode, wantDecode, wantEncode)
		}
	}

	// A static server routes no writes, so it has no write series.
	static := scrapeMetrics(t, testServer(t, nil).Handler())
	if _, ok := static[`twolayer_layer_seconds_count{layer="decode",endpoint="v1/bulk"}`]; ok {
		t.Error("a static server exports a v1/bulk layer series")
	}
	if _, ok := static[`twolayer_layer_seconds_count{layer="encode",endpoint="v1/window"}`]; !ok {
		t.Error("a static server exports no v1/window layer series")
	}
}
