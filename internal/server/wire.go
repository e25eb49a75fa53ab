package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/obsv"
)

// The wire codec of the hot /v1 shapes: a /v1/window request and its
// answer (a /v1/disk answer too), the windows form of /v1/batch with its
// counts, and the writes: /v1/bulk, /v1/insert and /v1/delete with their
// answers. It writes and reads the same JSON as encoding/json over the
// wire types in handlers.go, v1.go and mutation.go, without reflection
// and without a Go value per result. Requests it does not fully
// understand, and every /v1/disk request, go to encoding/json
// (decodeJSON), so every error keeps its status and text.

// bufPool recycles the request and response buffers of the codec.
var bufPool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 4<<10)
	return &buf
}}

// maxPooledBuf is the largest buffer returned to bufPool: it holds a
// 1000-window batch or a 1000-result answer, and a rare huge answer is
// left to the collector rather than pinned in the pool.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		*buf = (*buf)[:0]
		bufPool.Put(buf)
	}
}

// ---- decode ---------------------------------------------------------------

// decodeRequest reads the request body and decodes it into v through
// scan, or through decodeJSON when scan declines the bytes or the body
// could not be read to its end, and records the time it took on timer.
// On failure it writes the error response and returns false.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, v *T, scan func([]byte) (T, bool), timer *obsv.Histogram) bool {
	defer observeSince(timer, time.Now())
	buf := getBuf()
	defer putBuf(buf)
	data, err := readBody((*buf)[:0], r.Body)
	*buf = data
	if err != nil {
		// Replay the bytes read before the error, then the error itself
		// (a *http.MaxBytesError repeats on every Read), so encoding/json
		// meets it at the offset it always did.
		return decodeJSON(w, io.MultiReader(bytes.NewReader(data), r.Body), v)
	}
	if fast, ok := scan(data); ok {
		*v = fast
		return true
	}
	return decodeJSON(w, bytes.NewReader(data), v)
}

// readBody appends everything r yields to buf; a nil error means r
// reached io.EOF.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4<<10)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanEnvelope decodes a /v1/window request as the benchmark's
// window_serve and mixed_rw workloads send it: a window and perhaps
// count_only. Every other field, and every disk, is left to
// encoding/json.
func scanEnvelope(data []byte) (env queryEnvelope, ok bool) {
	s := &scanner{data: data}
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "window":
			env.Window = new(rectJSON)
			return s.rect(env.Window)
		case "count_only":
			return s.boolean(&env.CountOnly)
		}
		return false
	}) && s.end()
	return env, ok
}

// scanBatch decodes a /v1/batch request as the benchmark's batch_scan
// workload sends it: a mode and windows. Threads, and every batch of
// disks, are left to encoding/json.
func scanBatch(data []byte) (req batchRequest, ok bool) {
	s := &scanner{data: data}
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "mode":
			return s.text(&req.Mode)
		case "windows":
			return array(s, &req.Windows, s.rect)
		}
		return false
	}) && s.end()
	return req, ok
}

// scanBulk decodes a /v1/bulk request: its mutations, each with an op,
// an id and an MBR.
func scanBulk(data []byte) (req bulkRequest, ok bool) {
	s := &scanner{data: data}
	ok = s.object(func(key []byte) bool {
		if string(key) != "mutations" {
			return false
		}
		return array(s, &req.Mutations, func(m *bulkMutationJSON) bool {
			return s.mutation(&m.Op, &m.ID, &m.MBR)
		})
	}) && s.end()
	return req, ok
}

// scanObject decodes a /v1/insert or /v1/delete request: an id and an
// MBR.
func scanObject[T insertRequest | deleteRequest](data []byte) (T, bool) {
	var req insertRequest
	s := &scanner{data: data}
	ok := s.mutation(nil, &req.ID, &req.MBR) && s.end()
	return T(req), ok
}

// scanner reads the strict subset of JSON the fast path accepts. Each
// method returns false as soon as the input leaves that subset — a
// syntax error, but also anything encoding/json would read differently
// from a plain byte match or would merge: a key that is not an exact
// match (encoding/json folds case), a duplicate key, null, a string with
// an escape or a non-ASCII byte, a number out of range, or trailing
// data.
type scanner struct {
	data []byte
	pos  int
}

// next skips JSON white space and returns the byte after it, or 0 at
// the end of the input.
func (s *scanner) next() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after white space.
func (s *scanner) eat(c byte) bool {
	if s.next() != c {
		return false
	}
	s.pos++
	return true
}

// end reports whether only white space is left.
func (s *scanner) end() bool {
	s.next()
	return s.pos == len(s.data)
}

// object reads an object, calling field with each key once the scanner
// stands before the key's value; field reads the value or declines an
// unknown key. At most 8 distinct keys are accepted, more than any
// request shape has.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen [8][]byte
	for n := 0; ; n++ {
		key, ok := s.str()
		if !ok || n == len(seen) || !s.eat(':') {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !field(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// str reads a string of printable ASCII without escapes and returns
// its contents, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// knownTexts are the batch modes and the mutation ops; text returns
// them without allocating.
var knownTexts = [...]string{"queries", "tiles", "insert", "delete"}

// text reads a string into v, which never aliases the input.
func (s *scanner) text(v *string) bool {
	b, ok := s.str()
	if !ok {
		return false
	}
	for _, t := range knownTexts {
		if string(b) == t {
			*v = t
			return true
		}
	}
	*v = string(b)
	return true
}

// number reads a number literal that follows the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *scanner) number() (lit []byte, ok bool) {
	s.next()
	start := s.pos
	s.at("-")
	if !s.at("0") && !s.digits() {
		return nil, false
	}
	if s.at(".") && !s.digits() {
		return nil, false
	}
	if s.at("eE") {
		s.at("+-")
		if !s.digits() {
			return nil, false
		}
	}
	return s.data[start:s.pos], true
}

// at consumes the byte under the cursor if it is one of set.
func (s *scanner) at(set string) bool {
	if s.pos < len(s.data) && strings.IndexByte(set, s.data[s.pos]) >= 0 {
		s.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether it was
// not empty.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// id reads an object ID into v: plain digits without a leading zero
// that fit in a uint32. A sign, a fraction or an exponent is declined,
// as encoding/json refuses each for an integer field.
func (s *scanner) id(v *twolayer.ID) bool {
	s.next()
	start := s.pos
	if !s.at("0") && !s.digits() {
		return false
	}
	n, err := strconv.ParseUint(string(s.data[start:s.pos]), 10, 32)
	*v = twolayer.ID(n)
	return err == nil
}

// float reads a number into v with encoding/json's conversion.
func (s *scanner) float(v *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*v = f
	return err == nil
}

// boolean reads true or false into v.
func (s *scanner) boolean(v *bool) bool {
	s.next()
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*v, s.pos = true, s.pos+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*v, s.pos = false, s.pos+len("false")
	default:
		return false
	}
	return true
}

func (s *scanner) rect(r *rectJSON) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "min_x":
			return s.float(&r.MinX)
		case "min_y":
			return s.float(&r.MinY)
		case "max_x":
			return s.float(&r.MaxX)
		case "max_y":
			return s.float(&r.MaxY)
		}
		return false
	})
}

// mutation reads a mutation object: "op" into op, which is nil where
// the shape has no op, "id" into id and "mbr" into mbr.
func (s *scanner) mutation(op *string, id *twolayer.ID, mbr *rectJSON) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			return op != nil && s.text(op)
		case "id":
			return s.id(id)
		case "mbr":
			return s.rect(mbr)
		}
		return false
	})
}

// array reads an array into v, each element through elem; [] yields an
// empty, non-nil slice, as from encoding/json.
func array[T any](s *scanner, v *[]T, elem func(*T) bool) bool {
	if !s.eat('[') {
		return false
	}
	out := []T{}
	if !s.eat(']') {
		for {
			out = append(out, *new(T))
			if !elem(&out[len(out)-1]) {
				return false
			}
			if !s.eat(',') {
				if !s.eat(']') {
					return false
				}
				break
			}
		}
	}
	*v = out
	return true
}

// ---- encode ---------------------------------------------------------------

// checkFloat returns encoding/json's error for a float64 JSON cannot
// carry (NaN, ±Inf), or nil.
func checkFloat(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// hit is one result of a range answer as the index delivers it.
type hit struct {
	id  twolayer.ID
	mbr twolayer.Rect
}

// hitPool recycles the result buffers of range answers, so collecting
// the results allocates nothing per call.
var hitPool = sync.Pool{New: func() any {
	hits := make([]hit, 0, 512)
	return &hits
}}

// appendResult appends one element of a range answer's "results":
// {"id":…,"mbr":{…}}, or {"id":…} for a result refined against its
// exact geometry (withMBR false).
func appendResult(dst []byte, h hit, withMBR bool) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(h.id), 10)
	if !withMBR {
		return append(dst, '}'), nil
	}
	for _, v := range [4]float64{h.mbr.MinX, h.mbr.MinY, h.mbr.MaxX, h.mbr.MaxY} {
		if err := checkFloat(v); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"mbr":{"min_x":`...)
	dst = appendFloat(dst, h.mbr.MinX)
	dst = append(dst, `,"min_y":`...)
	dst = appendFloat(dst, h.mbr.MinY)
	dst = append(dst, `,"max_x":`...)
	dst = appendFloat(dst, h.mbr.MaxX)
	dst = append(dst, `,"max_y":`...)
	dst = appendFloat(dst, h.mbr.MaxY)
	return append(dst, "}}"...), nil
}

// rangeAnswer is a /v1/window or /v1/disk answer.
type rangeAnswer struct {
	count   int
	results []hit // empty for a count-only answer
	// withMBR is false when the results were refined against their
	// exact geometry: they are then written without their MBR.
	withMBR   bool
	truncated bool
	elapsedUS int64
	trace     *traceJSON
}

// appendRange appends the bytes json.Encoder writes for a:
//
//	{"count":…,"results":[…],"truncated":…,"elapsed_us":…,"trace":{…}}
//
// where "results" is omitted when there are none and "trace" when it is
// nil.
func appendRange(dst []byte, a *rangeAnswer) ([]byte, error) {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(a.count), 10)
	if len(a.results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i, h := range a.results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendResult(dst, h, a.withMBR); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, a.truncated)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, a.elapsedUS, 10)
	if a.trace != nil {
		tr, err := json.Marshal(a.trace)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"trace":`...), tr...)
	}
	return append(dst, "}\n"...), nil
}

// appendBatch appends the bytes json.Encoder writes for b. Its Mode is
// one of the handler's constants, which need no escaping.
func appendBatch(dst []byte, b *batchResponse) []byte {
	dst = append(dst, `{"counts":`...)
	if b.Counts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range b.Counts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(b.Total), 10)
	dst = append(dst, `,"mode":"`...)
	dst = append(dst, b.Mode...)
	dst = append(dst, `","threads":`...)
	dst = strconv.AppendInt(dst, int64(b.Threads), 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, b.ElapsedUS, 10)
	return append(dst, "}\n"...)
}

// appendInsert appends the bytes json.Encoder writes for r.
func appendInsert(dst []byte, r *insertResponse) []byte {
	return appendEpoch(append(dst, '{'), r.Epoch, r.ElapsedUS)
}

// appendDelete appends the bytes json.Encoder writes for r.
func appendDelete(dst []byte, r *deleteResponse) []byte {
	dst = append(dst, `{"found":`...)
	dst = strconv.AppendBool(dst, r.Found)
	return appendEpoch(append(dst, ','), r.Epoch, r.ElapsedUS)
}

// appendEpoch appends the tail of an insert or delete answer.
func appendEpoch(dst []byte, epoch uint64, elapsedUS int64) []byte {
	dst = append(dst, `"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, elapsedUS, 10)
	return append(dst, "}\n"...)
}

// appendBulk appends the bytes json.Encoder writes for b.
func appendBulk(dst []byte, b *bulkResponse) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, b.Epoch, 10)
	dst = append(dst, `,"found":`...)
	if b.Found == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, f := range b.Found {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendBool(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, b.ElapsedUS, 10)
	return append(dst, "}\n"...)
}
