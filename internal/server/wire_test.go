package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// rangeResponse is a /v1/window or /v1/disk answer as encoding/json
// reads and writes it: the type the tests decode answers into, and the
// reference appendRange is compared against.
type rangeResponse struct {
	Count     int           `json:"count"`
	Results   []rangeResult `json:"results,omitempty"`
	Truncated bool          `json:"truncated"`
	ElapsedUS int64         `json:"elapsed_us"`
	Trace     *traceJSON    `json:"trace,omitempty"`
}

type rangeResult struct {
	ID  twolayer.ID `json:"id"`
	MBR *rectJSON   `json:"mbr,omitempty"` // omitted for exact-geometry results
}

// encodingJSON is what json.NewEncoder writes for v.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// edgeFloats are the values where encoding/json's float format turns:
// signed zero, the exponent cut-offs, the extremes of float64.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 5e-324, 1e21, -1e21,
	1e20, -1e20, 999999999999999999999, 1e-9, 1.5e-10, 0.1, 1, -2.5,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789,
}

func randFloat(rnd *rand.Rand) float64 {
	if rnd.Intn(4) == 0 {
		return edgeFloats[rnd.Intn(len(edgeFloats))]
	}
	f := rnd.Float64() * math.Pow(10, float64(rnd.Intn(60)-30))
	if rnd.Intn(2) == 0 {
		f = -f
	}
	return f
}

// randBitsFloat returns a finite float64 from a random bit pattern of
// either sign, drawn in turn from every pattern, the subnormals, the
// normals below 1e-6 and the normals from 1e21 on.
func randBitsFloat(rnd *rand.Rand) float64 {
	sign, frac := rnd.Uint64()&(1<<63), rnd.Uint64()>>12
	switch rnd.Intn(4) {
	case 0:
		if f := math.Float64frombits(rnd.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return randBitsFloat(rnd)
	case 1:
		return math.Float64frombits(sign | frac)
	case 2: // biased exponent 1002 is 2^-21
		return math.Float64frombits(sign | uint64(1+rnd.Intn(1002))<<52 | frac)
	default: // biased exponent 1093 is 2^70
		return math.Float64frombits(sign | uint64(1093+rnd.Intn(2046-1093+1))<<52 | frac)
	}
}

func randTrace(rnd *rand.Rand) *traceJSON {
	tr := &traceJSON{
		Kind:        []string{"window", "disk"}[rnd.Intn(2)],
		ElapsedUS:   rnd.Int63n(1e6),
		QueueWaitUS: rnd.Int63n(3),
		FilterUS:    rnd.Int63n(1e3),
	}
	tr.TilesVisited = rnd.Int63n(1e4)
	tr.EntriesScanned = rnd.Int63()
	tr.Results = rnd.Int63n(1e3)
	tr.ClassEntriesScanned.C = rnd.Int63n(50)
	for i := rnd.Intn(3); i > 0; i-- {
		tr.Shards = append(tr.Shards, shardSpanJSON{Shard: i, ElapsedUS: rnd.Int63n(1e3), Results: rnd.Intn(9)})
	}
	return tr
}

// TestWireMatchesEncodingJSON pins the hand-written encoders to the
// bytes json.NewEncoder writes for the same answer.
func TestWireMatchesEncodingJSON(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	check := func(ref rangeResponse, ans rangeAnswer, exact bool) {
		t.Helper()
		ans.withMBR = !exact
		for _, r := range ref.Results {
			h := hit{id: r.ID}
			if r.MBR != nil {
				h.mbr = r.MBR.toRect()
			}
			ans.results = append(ans.results, h)
		}
		got, err := appendRange(nil, &ans)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodingJSON(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("appendRange:\n got %s\nwant %s", got, want)
		}
	}

	// Every edge value in every coordinate, the largest ID, no results,
	// an exact answer, a count-only answer, a truncated one.
	for _, f := range edgeFloats {
		mbr := &rectJSON{f, -f, -f, f}
		check(rangeResponse{Count: 1, Results: []rangeResult{{math.MaxUint32, mbr}}}, rangeAnswer{count: 1}, false)
	}
	check(rangeResponse{}, rangeAnswer{}, false)
	check(rangeResponse{Count: 2, Results: []rangeResult{{ID: 0}, {ID: 7}}}, rangeAnswer{count: 2}, true)
	check(rangeResponse{Count: math.MaxInt64, ElapsedUS: 5}, rangeAnswer{count: math.MaxInt64, elapsedUS: 5}, false)
	check(rangeResponse{Count: math.MinInt64}, rangeAnswer{count: math.MinInt64}, false)
	check(rangeResponse{Count: 1, Results: []rangeResult{{1, &rectJSON{0, 0, 1, 1}}}, Truncated: true},
		rangeAnswer{count: 1, truncated: true}, false)

	for range 2000 {
		exact := rnd.Intn(5) == 0
		var ref rangeResponse
		for i := rnd.Intn(12); i > 0; i-- {
			r := rangeResult{ID: rnd.Uint32()}
			if !exact {
				r.MBR = &rectJSON{randFloat(rnd), randFloat(rnd), randFloat(rnd), randFloat(rnd)}
			}
			ref.Results = append(ref.Results, r)
		}
		ref.Count = len(ref.Results)
		if ref.Count == 0 && rnd.Intn(2) == 0 {
			ref.Count = rnd.Intn(1 << 20) // a count-only answer
		}
		ref.Truncated = rnd.Intn(3) == 0
		ref.ElapsedUS = rnd.Int63n(1 << uint(rnd.Intn(63)))
		if rnd.Intn(3) == 0 {
			ref.Trace = randTrace(rnd)
		}
		check(ref, rangeAnswer{
			count: ref.Count, truncated: ref.Truncated, elapsedUS: ref.ElapsedUS,
			trace: ref.Trace,
		}, exact)
	}

	// MBRs from raw bit patterns, so encoding/json stays the reference
	// for whole answers, not only for single floats.
	for range 500 {
		var ref rangeResponse
		for i := 2 + rnd.Intn(8); i > 0; i-- {
			mbr := &rectJSON{randBitsFloat(rnd), randBitsFloat(rnd), randBitsFloat(rnd), randBitsFloat(rnd)}
			ref.Results = append(ref.Results, rangeResult{ID: rnd.Uint32(), MBR: mbr})
		}
		ref.Count = len(ref.Results)
		check(ref, rangeAnswer{count: ref.Count}, false)
	}

	for _, counts := range [][]int{nil, {}, {0}, {3, 0, math.MaxInt64, math.MinInt64}} {
		for _, mode := range []string{"queries", "tiles"} {
			b := batchResponse{Counts: counts, Total: rnd.Int(), Mode: mode, Threads: 1 + rnd.Intn(8), ElapsedUS: rnd.Int63()}
			if got, want := appendBatch(nil, &b), encodingJSON(t, b); !bytes.Equal(got, want) {
				t.Fatalf("appendBatch:\n got %s\nwant %s", got, want)
			}
		}
	}

	for _, found := range [][]bool{nil, {}, {true}, {false}, {true, false, false, true, true}} {
		b := bulkResponse{Epoch: rnd.Uint64(), Found: found, ElapsedUS: rnd.Int63()}
		if got, want := appendBulk(nil, &b), encodingJSON(t, b); !bytes.Equal(got, want) {
			t.Fatalf("appendBulk:\n got %s\nwant %s", got, want)
		}
	}
	for _, epoch := range []uint64{0, 1, math.MaxUint64, rnd.Uint64()} {
		elapsed := rnd.Int63n(1 << uint(rnd.Intn(63)))
		ins := insertResponse{Epoch: epoch, ElapsedUS: elapsed}
		if got, want := appendInsert(nil, &ins), encodingJSON(t, ins); !bytes.Equal(got, want) {
			t.Fatalf("appendInsert:\n got %s\nwant %s", got, want)
		}
		for _, found := range []bool{true, false} {
			del := deleteResponse{Found: found, Epoch: epoch, ElapsedUS: elapsed}
			if got, want := appendDelete(nil, &del), encodingJSON(t, del); !bytes.Equal(got, want) {
				t.Fatalf("appendDelete:\n got %s\nwant %s", got, want)
			}
		}
	}

	// A value JSON cannot carry, in any coordinate, fails with
	// encoding/json's own error.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		_, want := json.Marshal(f)
		for i := range 4 {
			c := [4]float64{0, 0, 1, 1}
			c[i] = f
			results := []hit{{id: 1, mbr: twolayer.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}}}
			if _, err := appendRange(nil, &rangeAnswer{count: 1, results: results, withMBR: true}); err == nil || err.Error() != want.Error() {
				t.Errorf("appendRange(coordinate %d = %v) error %v, want %v", i, f, err, want)
			}
		}
	}
}

// referenceDecode decodes data with encoding/json as decodeJSON does
// (unknown fields rejected, trailing data refused).
func referenceDecode(data []byte, v any) bool {
	return decodeJSON(httptest.NewRecorder(), bytes.NewReader(data), v)
}

// checkScan fails t if scan accepted data and encoding/json decodes it
// to anything else, or refuses it.
func checkScan[T any](t *testing.T, data []byte, scan func([]byte) (T, bool)) (accepted bool) {
	t.Helper()
	got, ok := scan(data)
	if !ok {
		return false
	}
	var want T
	if !referenceDecode(data, &want) {
		t.Fatalf("fast decoder accepted %q, which encoding/json refuses", data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast decoder on %q:\n got %+v\nwant %+v", data, got, want)
	}
	return true
}

// TestScanDeclines lists what the fast decoders must accept (and then
// decode as encoding/json does) and what they must leave to it.
func TestScanDeclines(t *testing.T) {
	const win = `{"min_x":0.25,"min_y":-0,"max_x":1e-3,"max_y":2E+1}`
	accept := []string{
		`{"window":` + win + `}`,
		" \t\r\n{ \"window\" : " + win + " , \"count_only\" : true } \n",
		`{"count_only":false,"window":{}}`,
		`{}`,
	}
	decline := []string{
		`{"Window":` + win + `}`,                       // encoding/json folds case
		`{"window":` + win + `,"window":{}}`,           // duplicate key
		`{"window":{"min_x":1,"min_x":2}}`,             // duplicate key inside
		`{"window":null}`,                              // null
		`null`,                                         // null
		`{"window":{"min_x":1e400}}`,                   // out of range
		`{"window":{"min_x":01}}`,                      // grammar
		`{"window":{"min_x":.5}}`,                      // grammar
		`{"window":{"min_x":-}}`,                       // grammar
		`{"window":{"min_x":1.}}`,                      // grammar
		`{"window":{"min_x":"0"}}`,                     // type
		`{"count_only":1}`,                             // type
		`{"window":` + win + `} {}`,                    // trailing data
		`{"window":` + win + `}}`,                      // trailing data
		`{"window":` + win + `,}`,                      // syntax
		`{"window":` + win,                             // truncated
		`{"disk":{"center":{"x":0,"y":0},"radius":1}}`, // disk
		`{"window":{"min_x":0,"min_z":0}}`,             // unknown key
		`{"window":{},"limit":30}`,                     // not a benchmark field
		`{"window":{},"mode":"avoid"}`,                 // not a benchmark field
	}
	for _, body := range accept {
		if !checkScan(t, []byte(body), scanEnvelope) {
			t.Errorf("scanEnvelope declined %s", body)
		}
	}
	for _, body := range decline {
		if checkScan(t, []byte(body), scanEnvelope) {
			t.Errorf("scanEnvelope accepted %s", body)
		}
	}

	for _, body := range []string{
		`{"windows":[` + win + `,` + win + `]}`,
		`{"mode":"tiles","windows":[]}`,
		`{"mode":"bogus","windows":[{}]}`,
	} {
		if !checkScan(t, []byte(body), scanBatch) {
			t.Errorf("scanBatch declined %s", body)
		}
	}
	for _, body := range []string{
		`{"disks":[{"center":{"x":0,"y":0},"radius":1}]}`,
		`{"windows":null}`,
		`{"windows":[` + win + `,]}`,
		`{"windows":[null]}`,
		`{"windows":{}}`,
		`{"threads":2,"windows":[]}`,
		`{"mode":"qu\u0065ries","windows":[]}`, // escape
		`{"mode":"é","windows":[]}`,            // non-ASCII
	} {
		if checkScan(t, []byte(body), scanBatch) {
			t.Errorf("scanBatch accepted %s", body)
		}
	}

	const del, ins = `{"op":"delete","id":7,"mbr":` + win + `}`, `{"op":"insert","id":7,"mbr":` + win + `}`
	for _, body := range []string{
		`{"mutations":[` + del + `,` + ins + `]}`,
		` {"mutations" : [ {"mbr":{},"id":0} , {"op":"","id":4294967295} ] } `,
		`{"mutations":[{"op":"upsert","id":1}]}`,  // the handler refuses the op
		`{"mutations":[` + ins + `,` + ins + `]}`, // a duplicate id
		`{"mutations":[]}`,
		`{"mutations":[{}]}`,
		`{}`,
	} {
		if !checkScan(t, []byte(body), scanBulk) {
			t.Errorf("scanBulk declined %s", body)
		}
	}
	for _, body := range []string{
		`{"mutations":null}`,
		`{"mutations":[null]}`,
		`{"mutations":{}}`,
		`{"mutations":[{"op":null,"id":1}]}`,
		`{"mutations":[{"Op":"insert","id":1}]}`, // encoding/json folds case
		`{"Mutations":[]}`,
		`{"mutations":[{"op":1}]}`,
		`{"mutations":[{"op":"d\u0065lete"}]}`, // escape
		`{"mutations":[{"id":-1}]}`,
		`{"mutations":[{"id":01}]}`,
		`{"mutations":[{"id":1.5}]}`,
		`{"mutations":[{"id":1.0}]}`,
		`{"mutations":[{"id":1e3}]}`,
		`{"mutations":[{"id":4294967296}]}`,
		`{"mutations":[{"id":"1"}]}`,
		`{"mutations":[{"id":1,"id":2}]}`, // duplicate key
		`{"mutations":[{"id":1,"mbr":` + win + `,"bogus":0}]}`,
		`{"mutations":[` + del + `,]}`,
		`{"mutations":[` + del + `]} x`, // trailing data
		`{"mutations":[` + del + `]`,    // truncated
	} {
		if checkScan(t, []byte(body), scanBulk) {
			t.Errorf("scanBulk accepted %s", body)
		}
	}

	for _, body := range []string{
		`{"id":3,"mbr":` + win + `}`,
		`{"mbr":` + win + `,"id":0}`,
		`{}`,
	} {
		if !checkScan(t, []byte(body), scanObject[insertRequest]) || !checkScan(t, []byte(body), scanObject[deleteRequest]) {
			t.Errorf("scanObject declined %s", body)
		}
	}
	for _, body := range []string{
		`{"op":"insert","id":3,"mbr":` + win + `}`, // no op in this shape
		`{"ID":3}`,
		`{"id":-1}`,
		`{"id":4294967296}`,
		`{"id":1.5}`,
		`{"id":3,"mbr":null}`,
		`{"id":3} {}`,
		`[]`,
	} {
		if checkScan(t, []byte(body), scanObject[insertRequest]) {
			t.Errorf("scanObject accepted %s", body)
		}
	}

	// An op outlives the request buffer it was read from.
	data := []byte(`{"mutations":[{"op":"upsert"},{"op":"delete"}]}`)
	req, _ := scanBulk(data)
	clear(data)
	if len(req.Mutations) != 2 || req.Mutations[0].Op != "upsert" || req.Mutations[1].Op != "delete" {
		t.Errorf("ops after the buffer was cleared: %+v", req.Mutations)
	}
}

// TestDeclinedRequestErrors checks that a request the fast decoder
// declines is answered exactly as encoding/json alone answers it.
func TestDeclinedRequestErrors(t *testing.T) {
	h := testServer(t, nil).Handler()
	live, _ := liveServer(t, nil)
	lh := live.Handler()
	const mbr = `"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}`
	for _, c := range []struct{ path, body string }{
		{"/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"limit":1.5}`},
		{"/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"bogus":1}`},
		{"/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}} x`},
		{"/v1/disk", `{"disk":{"center":{"x":0,"y":0},"radius":1e400}}`},
		{"/v1/batch", `{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":"1"}]}`},
		{"/v1/batch", `{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}],"threads":-1.0}`},
		{"/v1/bulk", `{"mutations":[{"op":1,"id":1,` + mbr + `}]}`},
		{"/v1/bulk", `{"mutations":[{"op":"insert","id":4294967296,` + mbr + `}]}`},
		{"/v1/bulk", `{"mutations":[{"op":"delete","id":1.5,` + mbr + `}]}`},
		{"/v1/bulk", `{"mutations":[{"op":"insert","id":1,` + mbr + `}]} x`},
		{"/v1/insert", `{"id":4294967296,` + mbr + `}`},
		{"/v1/insert", `{"op":"insert","id":1,` + mbr + `}`},
		{"/v1/delete", `{"id":1.5,` + mbr + `}`},
		{"/v1/delete", `{"id":1,` + mbr + `} x`},
	} {
		var v any
		handler := lh
		switch c.path {
		case "/v1/window", "/v1/disk":
			v, handler = new(queryEnvelope), h
		case "/v1/batch":
			v, handler = new(batchRequest), h
		case "/v1/bulk":
			v = new(bulkRequest)
		case "/v1/insert":
			v = new(insertRequest)
		default:
			v = new(deleteRequest)
		}
		w := do(t, handler, "POST", c.path, c.body, nil)
		rec := httptest.NewRecorder()
		if decodeJSON(rec, strings.NewReader(c.body), v) {
			t.Fatalf("%s: encoding/json accepts the declined body %s", c.path, c.body)
		}
		if w.Code != rec.Code || w.Body.String() != rec.Body.String() {
			t.Errorf("%s %s: answered %d %s, encoding/json %d %s",
				c.path, c.body, w.Code, w.Body.String(), rec.Code, rec.Body.String())
		}
	}

	// encoding/json names the request type in its error texts, so the
	// two routes keep a type each.
	for path, want := range map[string]string{
		"/v1/insert": "insertRequest.id of type uint32",
		"/v1/delete": "deleteRequest.id of type uint32",
	} {
		if w := do(t, lh, "POST", path, `{"id":4294967296,`+mbr+`}`, nil); !strings.Contains(w.Body.String(), want) {
			t.Errorf("%s: answered %s, want an error naming %s", path, w.Body.String(), want)
		}
	}

	// A declined body encoding/json accepts is answered as before too.
	var folded, plain rangeResponse
	do(t, h, "POST", "/v1/window", `{"Window":{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5},"LIMIT":3}`, &folded)
	do(t, h, "POST", "/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5},"limit":3}`, &plain)
	if folded.Count != 3 || !reflect.DeepEqual(folded.Results, plain.Results) {
		t.Errorf("case-folded keys: %+v, plain keys: %+v", folded, plain)
	}

	// A body the fast decoder accepts and the handler refuses is answered
	// as its case-folded twin, which only encoding/json reads.
	for _, c := range []struct{ path, plain, folded string }{
		{"/v1/bulk",
			`{"mutations":[{"op":"insert","id":1,` + mbr + `},{"op":"upsert","id":2,` + mbr + `}]}`,
			`{"MUTATIONS":[{"op":"insert","id":1,` + mbr + `},{"OP":"upsert","Id":2,` + mbr + `}]}`},
		{"/v1/bulk", `{"mutations":[]}`, `{"Mutations":[]}`},
		{"/v1/bulk", `{}`, `{"mutations":null}`},
		{"/v1/insert", `{"id":1,"mbr":{"min_x":1,"max_x":0}}`, `{"ID":1,"MBR":{"min_x":1,"max_x":0}}`},
		{"/v1/delete", `{"id":1,"mbr":{"min_x":1,"max_x":0}}`, `{"ID":1,"MBR":{"min_x":1,"max_x":0}}`},
	} {
		_, bulk := scanBulk([]byte(c.folded))
		if _, object := scanObject[insertRequest]([]byte(c.folded)); bulk || object {
			t.Fatalf("%s: the fast decoder accepts the twin %s", c.path, c.folded)
		}
		w, ref := do(t, lh, "POST", c.path, c.plain, nil), do(t, lh, "POST", c.path, c.folded, nil)
		if w.Code != http.StatusBadRequest || w.Code != ref.Code || w.Body.String() != ref.Body.String() {
			t.Errorf("%s %s: answered %d %s, encoding/json %d %s",
				c.path, c.plain, w.Code, w.Body.String(), ref.Code, ref.Body.String())
		}
	}

	// A body over the limit is still a 413, whichever decoder reads it.
	h = testServer(t, func(c *Config) { c.MaxBodyBytes = 64 }).Handler()
	live, _ = liveServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	lh = live.Handler()
	big := `{"windows":[` + strings.Repeat(`{"min_x":0,"min_y":0,"max_x":1,"max_y":1},`, 10) + `{}]}`
	bigBulk := `{"mutations":[` + strings.Repeat(`{"op":"insert","id":1,`+mbr+`},`, 10) + `{}]}`
	for _, c := range []struct {
		h          http.Handler
		path, body string
	}{{h, "/v1/window", big}, {h, "/v1/batch", big}, {lh, "/v1/bulk", bigBulk}} {
		path := c.path
		if w := do(t, c.h, "POST", path, c.body, nil); w.Code != http.StatusRequestEntityTooLarge ||
			!strings.Contains(w.Body.String(), "exceeds 64 bytes") {
			t.Errorf("%s: oversized body answered %d %s", path, w.Code, w.Body.String())
		}
	}
}

// TestNonFiniteAnswer500: an answer that would carry a number JSON
// cannot (NaN, ±Inf) is a 500 naming the value, not a 200 with an empty
// body. No served index can hold an infinite MBR any more — the library
// refuses one at build time — so a range answer never carries one (its
// encoder's guard is pinned by TestWireMatchesEncodingJSON); every other
// response goes through writeJSON, which marshals before it writes the
// status.
func TestNonFiniteAnswer500(t *testing.T) {
	if _, err := twolayer.BuildRectsErr([]twolayer.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2},
		{MinX: 0.3, MinY: 0.3, MaxX: math.Inf(1), MaxY: 0.4},
	}, twolayer.Options{GridSize: 4}); err == nil {
		t.Fatal("an index over an infinite MBR was built")
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError ||
		rec.Body.String() != `{"error":"encode response: json: unsupported value: NaN"}`+"\n" {
		t.Fatalf("writeJSON(NaN): %d %q", rec.Code, rec.Body.String())
	}
}

// TestRangeContentLength checks that range and batch answers carry their
// length instead of chunked framing.
func TestRangeContentLength(t *testing.T) {
	h := testServer(t, nil).Handler()
	for _, c := range []struct{ path, body string }{
		{"/v1/window", `{` + fullWindow + `}`},
		{"/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":2}}`},
		{"/v1/batch", `{"windows":[{"min_x":0,"min_y":0,"max_x":0.5,"max_y":0.5}]}`},
	} {
		w := do(t, h, "POST", c.path, c.body, nil)
		if w.Code != http.StatusOK || w.Header().Get("Content-Length") != strconv.Itoa(w.Body.Len()) {
			t.Errorf("%s: status %d, Content-Length %q for %d bytes",
				c.path, w.Code, w.Header().Get("Content-Length"), w.Body.Len())
		}
	}
}
