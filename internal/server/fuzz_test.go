package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// FuzzV1Envelope feeds arbitrary bytes to the /v1 envelope decoder
// end-to-end through the full middleware chain (method check, body
// limit, admission, evaluation). The server must never panic and must
// answer every input with a well-formed JSON response: 2xx with the
// range-response shape, or 4xx with an {"error": ...} body. 5xx means a
// malformed request escaped validation into the engine — a bug. The
// fast decoder must decline the input or decode it exactly as
// encoding/json does.
func FuzzV1Envelope(f *testing.F) {
	// A small geometry-backed index (the fuzz server is shared across
	// executions; handlers are concurrency-safe by design).
	var geoms []twolayer.Geometry
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			x, y := float64(i)/8, float64(j)/8
			geoms = append(geoms, twolayer.NewPolygon(
				twolayer.Point{X: x, Y: y},
				twolayer.Point{X: x + 0.05, Y: y},
				twolayer.Point{X: x + 0.05, Y: y + 0.05},
				twolayer.Point{X: x, Y: y + 0.05},
			))
		}
	}
	s := New(Config{
		Index:        twolayer.BuildGeoms(geoms, twolayer.Options{GridSize: 8, Decompose: true}),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxBodyBytes: 1 << 14, // small, so the fuzzer can reach the 413 path
	})
	h := s.Handler()

	// Valid envelopes, boundary abuse, and structural garbage.
	seeds := []string{
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
		`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.25}}`,
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true,"trace":true}`,
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"estimate":true,"limit":3}`, // an unknown field
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"exact":true,"mode":"avoid"}`,
		`{"window":{"min_x":1,"min_y":1,"max_x":0,"max_y":0}}`,
		`{"window":{"min_x":"NaN"}}`,
		`{"disk":{"center":{"x":1e308,"y":-1e308},"radius":1e308}}`,
		`{"disk":{"center":{"x":0,"y":0},"radius":-1}}`,
		`{"window":{},"disk":{}}`,
		`{"mode":"bogus","window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
		`{"limit":-5,"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"limit":99999999}`,
		`{`, `null`, `[]`, `""`, `0`, "\x00\x01\x02", `{"window":null}`,
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"trace":true,"count_only":true,"exact":true}`,
		`{"Window":{"MIN_X":0,"min_y":0,"max_x":1,"max_y":1},"limit":1e1}`,
		`{"window":{"min_x":-0.0,"min_y":1E-2,"max_x":0.5e+0,"max_y":1},"window":{}}`,
		`{"mode":"avoid","mode":"simple","window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
		` {"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}} `,
		`{"mode":"\u0061void","window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
	}
	for _, seed := range seeds {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}

	f.Fuzz(func(t *testing.T, body []byte, window bool) {
		checkScan(t, body, scanEnvelope)
		path := "/v1/disk"
		if window {
			path = "/v1/window"
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		if w.Code >= 500 {
			t.Fatalf("%s: status %d for body %q: %s", path, w.Code, body, w.Body.String())
		}
		var decoded map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("%s: status %d with non-JSON body %q (request %q)",
				path, w.Code, w.Body.String(), body)
		}
		switch {
		case w.Code == http.StatusOK:
			if _, ok := decoded["count"]; !ok {
				t.Fatalf("%s: 200 response without count: %s", path, w.Body.String())
			}
		case w.Code >= 400:
			if _, ok := decoded["error"]; !ok {
				t.Fatalf("%s: status %d without error field: %s", path, w.Code, w.Body.String())
			}
		default:
			t.Fatalf("%s: unexpected status %d: %s", path, w.Code, w.Body.String())
		}
	})
}

// FuzzV1Batch is FuzzV1Envelope for /v1/batch: every input is answered
// with a 200 carrying one count per window or a 4xx error, and the fast
// decoder declines it or decodes it exactly as encoding/json does.
func FuzzV1Batch(f *testing.F) {
	s := New(Config{
		Index:        twolayer.BuildGeoms(testGeoms(), twolayer.Options{GridSize: 8}),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxBodyBytes: 1 << 14,
	})
	h := s.Handler()
	for _, seed := range []string{
		`{"windows":[{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5},{"min_x":0.4,"min_y":0.4,"max_x":1,"max_y":1}]}`,
		`{"mode":"tiles","threads":2,"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"mode":"queries","windows":[{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}],"threads":0}`,
		`{"windows":[]}`, `{"windows":[{}]}`, `{"windows":null}`, `{"windows":[null]}`,
		`{"windows":[{"min_x":1,"min_y":1,"max_x":0,"max_y":0}]}`,
		`{"windows":[{"min_x":1e400,"min_y":0,"max_x":0,"max_y":0}]}`,
		`{"disks":[{"center":{"x":0.5,"y":0.5},"radius":0.3}]}`,
		`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}],"disks":[{"center":{"x":0,"y":0},"radius":1}]}`,
		`{"mode":"bogus","windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"threads":-1,"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"threads":2.0,"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"Windows":[{"MIN_X":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1,"min_x":0.5}]}`,
		`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]} []`,
		`{`, `[]`, `null`, "\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body, scanBatch)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		switch {
		case w.Code == http.StatusOK:
			var resp batchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with a bad body %q for %q", w.Body.String(), body)
			}
			if req, ok := scanBatch(body); ok && len(resp.Counts) != len(req.Windows) {
				t.Fatalf("%d counts for %d windows", len(resp.Counts), len(req.Windows))
			}
		case w.Code >= 400 && w.Code < 500:
			var e errorJSON
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without an error body: %q for %q", w.Code, w.Body.String(), body)
			}
		default:
			t.Fatalf("status %d: %s for %q", w.Code, w.Body.String(), body)
		}
	})
}

// FuzzV1Bulk is FuzzV1Batch for the writes, against a live server:
// /v1/bulk (route 0), /v1/insert (1) and /v1/delete (2). Every input is
// answered with a 200 carrying one found flag per mutation (an epoch for
// insert and delete) or a 4xx error, and the fast decoders decline it or
// decode it exactly as encoding/json does.
func FuzzV1Bulk(f *testing.F) {
	var (
		l *twolayer.ShardedLive
		h http.Handler
	)
	// fresh replaces the server once the fuzzer's inserts have grown its
	// index, so every execution stays cheap.
	fresh := func() {
		if l != nil {
			if l.Len() < 4096 {
				return
			}
			l.Close()
		}
		l = emptyLive(8, twolayer.LiveOptions{})
		h = New(Config{
			ShardedLive:  l,
			Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
			MaxBodyBytes: 1 << 14,
		}).Handler()
	}
	f.Cleanup(func() {
		if l != nil {
			l.Close()
		}
	})

	const mbr = `"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}`
	for _, seed := range []string{
		`{"mutations":[{"op":"delete","id":1,` + mbr + `},{"op":"insert","id":1,` + mbr + `}]}`,
		`{"mutations":[{"id":2,` + mbr + `},{"op":"delete","id":3,` + mbr + `}]}`,
		`{"mutations":[{"op":"upsert","id":1,` + mbr + `}]}`,
		`{"mutations":[{"op":null,"id":1,` + mbr + `}]}`,
		`{"mutations":[{"Op":"insert","id":1,` + mbr + `}]}`,
		`{"mutations":[{"op":"insert","id":5,` + mbr + `},{"op":"insert","id":5,` + mbr + `}]}`,
		`{"mutations":[{"op":"insert","id":-1,` + mbr + `}]}`,
		`{"mutations":[{"op":"insert","id":01,` + mbr + `}]}`,
		`{"mutations":[{"op":"insert","id":1.5,` + mbr + `}]}`,
		`{"mutations":[{"op":"insert","id":4294967296,` + mbr + `}]}`,
		`{"mutations":null}`, `{"mutations":[]}`, `{"mutations":[{}]}`,
		`{"mutations":[{"op":"insert","id":1,` + mbr + `}]} {}`,
		`{"mutations":[{"op":"insert","id":1,"mbr":{"min_x":0.5,"min_y":0.5,"max_x":0.1,"max_y":0.1}}]}`,
		`{"mutations":[{"op":"insert","id":1,"mbr":{"min_x":-1e308,"min_y":0,"max_x":1e308,"max_y":1}}]}`,
		`{"id":1,` + mbr + `}`, `{"op":"insert","id":1,` + mbr + `}`, `{"id":4294967295,"mbr":{}}`,
		`{`, `[]`, `null`, "\xff",
	} {
		for route := range uint8(3) {
			f.Add([]byte(seed), route)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, route uint8) {
		checkScan(t, body, scanBulk)
		checkScan(t, body, scanObject[insertRequest])
		checkScan(t, body, scanObject[deleteRequest])
		fresh()
		path := [...]string{"/v1/bulk", "/v1/insert", "/v1/delete"}[route%3]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch {
		case w.Code == http.StatusOK:
			var resp struct {
				Epoch uint64 `json:"epoch"`
				Found any    `json:"found"` // a flag per mutation from /v1/bulk
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Epoch == 0 {
				t.Fatalf("%s: 200 with a bad body %q for %q", path, w.Body.String(), body)
			}
			var req bulkRequest
			if found, _ := resp.Found.([]any); path == "/v1/bulk" &&
				(!referenceDecode(body, &req) || len(found) != len(req.Mutations)) {
				t.Fatalf("found %v for %q", resp.Found, body)
			}
		case w.Code >= 400 && w.Code < 500:
			var e errorJSON
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s: status %d without an error body: %q for %q", path, w.Code, w.Body.String(), body)
			}
		default:
			t.Fatalf("%s: status %d: %s for %q", path, w.Code, w.Body.String(), body)
		}
	})
}
