package obsv

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the rendered text format: HELP/TYPE lines,
// label rendering, cumulative histogram buckets, stable ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations performed.")
	c.Add(3)
	cv := r.CounterVec("test_requests_total", "Requests by endpoint.", "endpoint")
	cv.With("window").Add(2)
	cv.With("disk").Inc()
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(7)
	g.Add(-2)
	r.GaugeFunc("test_epoch", "Current epoch.", func() float64 { return 42 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // above the last bound: only +Inf

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_ops_total Operations performed.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_requests_total Requests by endpoint.
# TYPE test_requests_total counter
test_requests_total{endpoint="disk"} 1
test_requests_total{endpoint="window"} 2
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 5
# HELP test_epoch Current epoch.
# TYPE test_epoch gauge
test_epoch 42
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 99.55
test_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMarshalJSON locks the JSON rendering: sections split at the first
// '_' after the namespace, integers without an exponent, NaN and ±Inf as
// null, one nesting level per label value in label-key order, and a
// histogram as its count and sum.
func TestMarshalJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "").Add(1e6)
	r.GaugeFunc("test_ratio_nan", "", math.NaN)
	r.GaugeFunc("test_ratio_inf", "", func() float64 { return math.Inf(1) })
	r.GaugeFunc("test_ratio_neg_inf", "", func() float64 { return math.Inf(-1) })
	r.Gauge("test_ratio_half", "").Set(0.5)
	layer := r.CounterVec("test_layer_total", "", "layer", "endpoint")
	layer.With("encode", "v1/window").Add(2)
	layer.With("decode", "v1/window").Inc()
	layer.With("decode", "v1/disk").Add(3)
	r.GaugeVecFunc("test_shard_objects", "", "shard")
	h := r.Histogram("test_latency_seconds", "", []float64{0.1, 1})
	h.Observe(0.25)
	h.Observe(2)
	r.Gauge("up", "").Set(1)

	got, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(got) {
		t.Fatalf("invalid JSON: %s", got)
	}
	want := `{"latency":{"seconds":{"count":2,"sum":2.25}},` +
		`"layer":{"total":{"decode":{"v1/disk":3,"v1/window":1},"encode":{"v1/window":2}}},` +
		`"ops":{"total":1000000},` +
		`"ratio":{"half":0.5,"inf":null,"nan":null,"neg_inf":null},` +
		`"shard":{"objects":{}},` +
		`"up":1}`
	if string(got) != want {
		t.Errorf("JSON rendering\n got %s\nwant %s", got, want)
	}
}

// TestMarshalJSONCollision fails a family whose path is another's object.
func TestMarshalJSONCollision(t *testing.T) {
	r := NewRegistry()
	r.Gauge("test_up", "")
	r.Gauge("test_up_total", "")
	if _, err := r.MarshalJSON(); err == nil {
		t.Error("test_up and test_up_total rendered without a collision")
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "")
	r.Gauge("b", "")
	r.HistogramVec("c_seconds", "", nil, "endpoint")
	got := r.Names()
	want := []string{"a_total", "b", "c_seconds"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "1starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative Add = %v, want 5", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("esc_total", "", "path")
	cv.With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	r.WriteTo(&b)
	want := `esc_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped label not found; got:\n%s", b.String())
	}
}

// TestConcurrentUpdates hammers every instrument type from many
// goroutines (run under -race) and checks the totals add up.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_ops_total", "")
	cv := r.CounterVec("conc_req_total", "", "ep")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_lat_seconds", "", []float64{0.5})
	hv := r.HistogramVec("conc_lat2_seconds", "", []float64{0.5}, "ep")

	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := []string{"a", "b", "c"}[i%3]
			for j := 0; j < perG; j++ {
				c.Inc()
				cv.With(ep).Add(2)
				g.Add(1)
				h.Observe(0.25)
				hv.With(ep).Observe(0.75)
				// Interleave scrapes with updates.
				if j%500 == 0 {
					var b strings.Builder
					if _, err := r.WriteTo(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := c.Value(); got != total {
		t.Errorf("counter = %v, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	sum := cv.With("a").Value() + cv.With("b").Value() + cv.With("c").Value()
	if sum != 2*total {
		t.Errorf("countervec sum = %v, want %d", sum, 2*total)
	}
}
