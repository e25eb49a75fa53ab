// Package obsv is a small, dependency-free metrics registry exposing
// counters, gauges, and histograms in the Prometheus text exposition
// format (version 0.0.4), and the same samples as one JSON document
// (MarshalJSON).
//
// It exists so the serving layer can publish engine metrics — query
// latencies, live-index publish rates, WAL fsync latencies, partition
// statistics — without pulling the Prometheus client library into a
// repository that otherwise uses only the standard library.
//
// Instruments are registered once (typically at server construction) and
// updated from hot paths with a single atomic operation; a scrape walks
// the registry and renders every family in registration order, so the
// output is stable and diffable. Callback instruments (CounterFunc,
// GaugeFunc) are evaluated at scrape time, which is how point-in-time
// engine state (epochs, segment counts, partition skew) is exposed
// without any background sampling goroutine.
//
// Every metric name registered here must be documented in
// docs/OBSERVABILITY.md; `make docs-check` enforces that.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with atomic bit operations, so
// instruments never lock on the update path.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// series is one rendered line: a label set and a value source.
type series interface {
	labels() string        // rendered {k="v",...} or ""
	labelValues() []string // in the order of the family's label keys
	write(w io.Writer, name string) error
	appendJSON(b []byte) []byte
}

// labelSet is a series' label values, rendered once at creation.
type labelSet struct {
	lbl  string
	vals []string
}

func (l labelSet) labels() string        { return l.lbl }
func (l labelSet) labelValues() []string { return l.vals }

// family is one registered metric family: a name, HELP/TYPE metadata,
// and its series (one per label set; exactly one for unlabeled
// instruments).
type family struct {
	name string
	help string
	typ  string   // "counter", "gauge", "histogram"
	keys []string // label keys; none for unlabeled instruments

	mu     sync.Mutex
	series []series
}

// labelString renders the label values of one of f's series, one per
// label key.
func (f *family) labelString(values []string) string {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obsv: %s expects %d label values, got %d",
			f.name, len(f.keys), len(values)))
	}
	return renderLabels(f.keys, values)
}

func (f *family) add(s series) {
	f.mu.Lock()
	f.series = append(f.series, s)
	f.mu.Unlock()
}

// snapshotSeries returns the family's series sorted by label string for
// stable output. New series only ever get appended, so the copy is
// consistent.
func (f *family) snapshotSeries() []series {
	f.mu.Lock()
	out := make([]series, len(f.series))
	copy(out, f.series)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels() < out[j].labels() })
	return out
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; registration typically
// happens once at startup and scrapes at any time after.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, keys ...string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obsv: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, keys: keys}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Names returns every registered metric family name, in registration
// order. Used by the documentation checker: each name must appear in
// docs/OBSERVABILITY.md.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.fams))
	for i, f := range r.fams {
		out[i] = f.name
	}
	return out
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels formats a label set. Keys are given at Vec registration,
// values at With time; both are rendered escaped.
func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a float the way Prometheus expects: integers
// without an exponent, specials as +Inf/-Inf/NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// appendJSONValue writes v as formatValue does, and NaN and ±Inf, which
// JSON cannot spell, as null.
func appendJSONValue(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return append(b, formatValue(v)...)
}

// ---- counter --------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	val atomicFloat
	labelSet
}

// Inc adds one.
func (c *Counter) Inc() { c.val.Add(1) }

// Add increases the counter; negative deltas are a programming error and
// ignored (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.val.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.Load() }

func (c *Counter) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, c.lbl, formatValue(c.val.Load()))
	return err
}
func (c *Counter) appendJSON(b []byte) []byte { return appendJSONValue(b, c.val.Load()) }

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter")
	c := &Counter{}
	f.add(c)
	return c
}

// CounterVec is a counter family keyed by one or more label values.
type CounterVec struct {
	fam  *family
	mu   sync.Mutex
	kids map[string]*Counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	f := r.register(name, help, "counter", labelKeys...)
	return &CounterVec{fam: f, kids: make(map[string]*Counter)}
}

// With returns the counter for the given label values, creating it on
// first use. The child is cached; hot paths should hold the returned
// *Counter rather than calling With per update.
func (v *CounterVec) With(labelValues ...string) *Counter {
	lbl := v.fam.labelString(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[lbl]; ok {
		return c
	}
	c := &Counter{labelSet: labelSet{lbl, slices.Clone(labelValues)}}
	v.kids[lbl] = c
	v.fam.add(c)
	return c
}

// ---- gauge ----------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct {
	val atomicFloat
	labelSet
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.val.Set(v) }

// Add adjusts the value by the (possibly negative) delta.
func (g *Gauge) Add(v float64) { g.val.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.Load() }

func (g *Gauge) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, g.lbl, formatValue(g.val.Load()))
	return err
}
func (g *Gauge) appendJSON(b []byte) []byte { return appendJSONValue(b, g.val.Load()) }

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge")
	g := &Gauge{}
	f.add(g)
	return g
}

// funcSeries is a series whose value is computed at scrape time.
type funcSeries struct {
	fn func() float64
	labelSet
}

func (s *funcSeries) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.lbl, formatValue(s.fn()))
	return err
}
func (s *funcSeries) appendJSON(b []byte) []byte { return appendJSONValue(b, s.fn()) }

// GaugeFunc registers a gauge whose value is fn(), evaluated at every
// scrape. This is how point-in-time engine state (snapshot epoch, log
// segment counts, partition occupancy) is exposed without sampling.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge")
	f.add(&funcSeries{fn: fn})
}

// CounterFunc registers a counter whose value is fn(), evaluated at
// every scrape. fn must be monotone (it typically reads an engine-owned
// cumulative counter, e.g. WAL fsyncs since open).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter")
	f.add(&funcSeries{fn: fn})
}

// GaugeVecFunc registers a gauge family whose children are callbacks,
// added with its Add method (label values + fn per child).
type GaugeVecFunc struct{ fam *family }

// GaugeVecFunc registers a labeled callback gauge family.
func (r *Registry) GaugeVecFunc(name, help string, labelKeys ...string) *GaugeVecFunc {
	f := r.register(name, help, "gauge", labelKeys...)
	return &GaugeVecFunc{fam: f}
}

// Add registers one child evaluated at scrape time.
func (v *GaugeVecFunc) Add(fn func() float64, labelValues ...string) {
	v.fam.add(&funcSeries{fn, labelSet{v.fam.labelString(labelValues), slices.Clone(labelValues)}})
}

// CounterVecFunc registers a counter family whose children are callbacks,
// added with its Add method. Each fn must be monotone, like CounterFunc.
type CounterVecFunc struct{ fam *family }

// CounterVecFunc registers a labeled callback counter family.
func (r *Registry) CounterVecFunc(name, help string, labelKeys ...string) *CounterVecFunc {
	f := r.register(name, help, "counter", labelKeys...)
	return &CounterVecFunc{fam: f}
}

// Add registers one child evaluated at scrape time.
func (v *CounterVecFunc) Add(fn func() float64, labelValues ...string) {
	v.fam.add(&funcSeries{fn, labelSet{v.fam.labelString(labelValues), slices.Clone(labelValues)}})
}

// ---- histogram ------------------------------------------------------------

// DefBuckets are latency-oriented default buckets in seconds, spanning
// 50µs to 10s — the range from a cached single-tile lookup to a
// pathological scan.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into cumulative buckets; rendered with
// the standard _bucket/_sum/_count series.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound; +Inf is implicit via count
	sum    atomicFloat
	count  atomic.Uint64
	labelSet
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short and the common (fast-latency)
	// case exits early.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// appendJSON renders the count and sum only; the buckets stay on the
// text exposition.
func (h *Histogram) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"count":`...), h.count.Load(), 10)
	return append(appendJSONValue(append(b, `,"sum":`...), h.sum.Load()), '}')
}

func (h *Histogram) write(w io.Writer, name string) error {
	// Per-bucket counts are stored non-cumulative; exposition is
	// cumulative per the format.
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if err := h.writeBucket(w, name, formatValue(b), cum); err != nil {
			return err
		}
	}
	total := h.count.Load()
	if err := h.writeBucket(w, name, "+Inf", total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, h.lbl, formatValue(h.sum.Load())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, h.lbl, total)
	return err
}

func (h *Histogram) writeBucket(w io.Writer, name, le string, n uint64) error {
	lbl := h.lbl
	if lbl == "" {
		lbl = fmt.Sprintf(`{le="%s"}`, le)
	} else {
		lbl = lbl[:len(lbl)-1] + fmt.Sprintf(`,le="%s"}`, le)
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, n)
	return err
}

func newHistogram(bounds []float64, ls labelSet) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		bounds:   bounds,
		counts:   make([]atomic.Uint64, len(bounds)),
		labelSet: ls,
	}
}

// Histogram registers an unlabeled histogram; nil buckets selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram")
	h := newHistogram(buckets, labelSet{})
	f.add(h)
	return h
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	fam    *family
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

// HistogramVec registers a labeled histogram family; nil buckets selects
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	f := r.register(name, help, "histogram", labelKeys...)
	return &HistogramVec{
		fam: f, bounds: buckets,
		kids: make(map[string]*Histogram),
	}
}

// With returns the histogram for the given label values, creating it on
// first use. Hot paths should cache the child.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	lbl := v.fam.labelString(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.kids[lbl]; ok {
		return h
	}
	h := newHistogram(v.bounds, labelSet{lbl, slices.Clone(labelValues)})
	v.kids[lbl] = h
	v.fam.add(h)
	return h
}

// ---- exposition -----------------------------------------------------------

// WriteTo renders every family in registration order as Prometheus text
// format 0.0.4.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return cw.n, err
			}
		}
		if _, err := fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return cw.n, err
		}
		for _, s := range f.snapshotSeries() {
			if err := s.write(cw, f.name); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// jsonPath is where a family lands in the JSON rendering: its name
// without the namespace (the text up to the first '_'), split at the
// next '_' into a section and a field, so "twolayer_index_objects" is
// index.objects. A name with fewer parts lands at what is left of it.
func jsonPath(name string) []string {
	_, rest, ok := strings.Cut(name, "_")
	if !ok {
		return []string{name}
	}
	if section, field, ok := strings.Cut(rest, "_"); ok {
		return []string{section, field}
	}
	return []string{rest}
}

// MarshalJSON renders every family as one JSON object from the same
// samples WriteTo reads. A family lands at its jsonPath; a labeled
// series nests one object per label value, in the order of the family's
// label keys; a histogram is {"count":n,"sum":s} (its buckets stay on
// the text exposition); a value is written as in the text exposition,
// except NaN and ±Inf, which are null. Object keys are sorted.
func (r *Registry) MarshalJSON() ([]byte, error) {
	r.mu.Lock()
	fams := slices.Clone(r.fams)
	r.mu.Unlock()
	doc := make(map[string]any)
	// put stores v at path, making the objects on the way, and fails
	// where another value already is.
	put := func(path []string, v any) bool {
		obj := doc
		for _, k := range path[:len(path)-1] {
			if obj[k] == nil {
				obj[k] = make(map[string]any)
			}
			next, isObj := obj[k].(map[string]any)
			if !isObj {
				return false
			}
			obj = next
		}
		last := path[len(path)-1]
		if obj[last] != nil {
			return false
		}
		obj[last] = v
		return true
	}
	for _, f := range fams {
		path := jsonPath(f.name)
		// A labeled family is an object even before its first series.
		ok := len(f.keys) == 0 || put(path, make(map[string]any))
		for _, s := range f.snapshotSeries() {
			ok = ok && put(slices.Concat(path, s.labelValues()), json.RawMessage(s.appendJSON(nil)))
		}
		if !ok {
			return nil, fmt.Errorf("obsv: %s collides with another family in the JSON rendering", f.name)
		}
	}
	return json.Marshal(doc)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(h)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ContentType is the value served with the exposition body.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP renders the registry, making it mountable as the /metrics
// handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	r.WriteTo(w)
}
