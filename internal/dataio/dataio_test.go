package dataio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// referenceReadDataset is ReadDataset as it was when it read one line at
// a time through a bufio.Scanner on the caller's goroutine: the
// definition the block reader is compared against.
func referenceReadDataset(r io.Reader) (*spatial.Dataset, error) {
	var geoms []geom.Geometry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		g, err := referenceParseGeom(text)
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: %w", line, err)
		}
		geoms = append(geoms, g)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spatial.NewGeomDataset(geoms), nil
}

func referenceParseGeom(text string) (geom.Geometry, error) {
	tag, rest, ok := strings.Cut(text, ",")
	if !ok {
		return nil, fmt.Errorf("missing geometry tag")
	}
	switch tag {
	case "R":
		vals, err := referenceParseFloats(rest, 4)
		if err != nil {
			return nil, err
		}
		r := geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
		if !r.Valid() {
			return nil, fmt.Errorf("invalid rect %v", r)
		}
		return geom.RectGeometry(r), nil
	case "L", "P":
		vals, err := referenceParseFloats(rest, -1)
		if err != nil {
			return nil, err
		}
		if len(vals)%2 != 0 {
			return nil, fmt.Errorf("odd coordinate count %d", len(vals))
		}
		pts := make([]geom.Point, len(vals)/2)
		for i := range pts {
			pts[i] = geom.Point{X: vals[2*i], Y: vals[2*i+1]}
		}
		if tag == "L" {
			if len(pts) < 2 {
				return nil, fmt.Errorf("linestring needs 2+ points")
			}
			return geom.NewLineString(pts...), nil
		}
		if len(pts) < 3 {
			return nil, fmt.Errorf("polygon needs 3+ points")
		}
		return geom.NewPolygon(pts...), nil
	default:
		return nil, fmt.Errorf("unknown geometry tag %q", tag)
	}
}

// referenceParseFloats splits a comma-separated float list; want < 0
// accepts any count.
func referenceParseFloats(s string, want int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if want >= 0 && len(parts) != want {
		return nil, fmt.Errorf("have %d fields, want %d", len(parts), want)
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("field %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// reference runs referenceReadDataset on in; panicked reports the
// panic it raises on a closed triangle, which geom.NewPolygon rejects
// after the vertex count check.
func reference(in string) (d *spatial.Dataset, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	d, err = referenceReadDataset(strings.NewReader(in))
	return d, false, err
}

// sameDataset is reflect.DeepEqual, except that a NaN coordinate equals
// a NaN in the same place: it falls back to comparing what %v prints,
// which tells every other pair of float64 values apart.
func sameDataset(a, b *spatial.Dataset) bool {
	return reflect.DeepEqual(a, b) || a != nil && b != nil && show(a) == show(b)
}

func show(d *spatial.Dataset) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v %t\n", d.Entries, d.Geoms == nil)
	for _, g := range d.Geoms {
		fmt.Fprintf(&sb, "%T %v\n", g, g)
	}
	return sb.String()
}

// capsCut fails t unless every geometry's vertex slice ends at its
// capacity, so appending to one cannot write into a slab neighbour.
func capsCut(t *testing.T, geoms []geom.Geometry) {
	t.Helper()
	for i, g := range geoms {
		var pts []geom.Point
		switch g := g.(type) {
		case *geom.LineString:
			pts = g.Points
		case *geom.Polygon:
			pts = g.Ring
		}
		if len(pts) != cap(pts) {
			t.Fatalf("geometry %d: len %d, cap %d", i, len(pts), cap(pts))
		}
	}
}

// noGoroutinesLeft fails t unless the goroutine count comes back to
// baseline: a worker that has signalled its WaitGroup may still be on
// its way out, so the count is polled for a while rather than read once.
func noGoroutinesLeft(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// mixedCSV writes n objects, a third each rectangles, linestrings and
// polygons, with comments, blank lines, CRLF endings and white space
// (ASCII and Unicode) around rows and fields.
func mixedCSV(t *testing.T, n int) []byte {
	shapes := datagen.RealLikeDataset(datagen.Tiger, n, 3)
	rects := datagen.Rects(datagen.Spec{N: n, Area: 1e-4, Seed: 3})
	var buf, row bytes.Buffer
	for i := range n {
		switch i % 7 {
		case 0:
			buf.WriteString("# comment, with, commas\n")
		case 3:
			buf.WriteString("\r\n")
		case 5:
			buf.WriteString(" \t\u00a0\n")
		}
		row.Reset()
		g := shapes.Geoms[i]
		if i%3 == 0 {
			g = geom.RectGeometry(rects[i])
		}
		if err := writeGeom(&row, g); err != nil {
			t.Fatal(err)
		}
		text := strings.TrimSuffix(row.String(), "\n")
		switch i % 5 {
		case 1:
			text += "\r"
		case 2:
			text = "  " + text + "\t"
		case 3:
			text = text[:2] + strings.ReplaceAll(text[2:], ",", " ,\t")
		case 4:
			text = "\u00a0" + text + "\u0085"
		}
		buf.WriteString(text + "\n")
	}
	return buf.Bytes()
}

func FuzzReadDataset(f *testing.F) {
	for _, in := range []string{
		"",
		"R,0.1,0.2,0.3,0.4\r\nL,0,0,1,1\r\nP,0,0,1,0,0,1\r\n",
		"\u0085R,0,0,1,1\u00a0\n \u00a0L, 0 ,0,1,\u00a01\n",
		"# comment\n\n  \n#R,x\nR,0,0,1,1\n#\n",
		"L,0,0,1,1",
		"L,NaN,0,1,1\nP,Inf,0,1,-Inf,0,1\nR,1e308,-1e308,1e308,1e308\n",
		"L,-0,0,0x1p-2,1e-320\nP,0,0,1,0,1,1,0,0\n",
		"R,NaN,0,1,1\n",
		"R,0,0,1\nR,0,0,1,1,1\n",
		"X,0,1\n",
		"justtext\n",
		"L,0.1\nL,0.1,0.2,0.3\n",
		"P,0,0,1,1,0,0\n",
		"L,1e400,0,1,1\n",
		"L,0,0,,1\n",
		"R,0,0,1,1\nL,0,0,1,1\nP,0,0,1,0,0,1\nX\n",
	} {
		f.Add(in, uint8(6))
	}
	f.Fuzz(func(t *testing.T, in string, size uint8) {
		want, panicked, wantErr := reference(in)
		check := func(how string, got *spatial.Dataset, err error) {
			switch {
			case panicked:
				if err == nil {
					t.Fatalf("%s accepted %q, on which the reference panics", how, in)
				}
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s on %q: error %v, reference %v", how, in, err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s on %q: error %q, reference %q", how, in, err, wantErr)
				}
			case !sameDataset(got, want):
				t.Fatalf("%s on %q:\n%s\nreference:\n%s", how, in, show(got), show(want))
			default:
				capsCut(t, got.Geoms)
			}
		}
		got, err := ReadDataset(strings.NewReader(in))
		check("ReadDataset", got, err)
		// The same input cut into blocks of 1 to 256 bytes.
		geoms, err := readBlocks(strings.NewReader(in), 1+int(size), parseGeoms)
		if err == nil {
			got = spatial.NewGeomDataset(geoms)
		}
		check(fmt.Sprintf("blocks of %d", 1+int(size)), got, err)
	})
}

func TestReadDatasetBlockBoundaries(t *testing.T) {
	data := mixedCSV(t, 5000)
	want, err := referenceReadDataset(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 5000 {
		t.Fatalf("reference read %d objects", want.Len())
	}
	baseline := runtime.NumGoroutine()
	for _, size := range []int{1, 2, 7, 64, 4096} {
		geoms, err := readBlocks(bytes.NewReader(data), size, parseGeoms)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got := spatial.NewGeomDataset(geoms); !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: dataset differs from the reference", size)
		}
		capsCut(t, geoms)
	}
	got, err := ReadDataset(bytes.NewReader(data))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadDataset: err %v, equal %t", err, reflect.DeepEqual(got, want))
	}
	noGoroutinesLeft(t, baseline)
}

// TestReadDatasetErrorOrder puts a bad line in an early block and more
// in later ones, some near enough to be parsed before reading stops: at
// every block size the error names the earliest line, numbered exactly
// as the reference numbers it.
func TestReadDatasetErrorOrder(t *testing.T) {
	lines := strings.Split(string(mixedCSV(t, 3000)), "\n")
	early := 211
	lines[early] = "L,0.1,0.2,0.3"
	for _, late := range []int{early + 30, early + 90, len(lines) - 400} {
		lines[late] = "X,0,0"
	}
	in := strings.Join(lines, "\n")
	_, want := referenceReadDataset(strings.NewReader(in))
	if want == nil || !strings.HasPrefix(want.Error(), fmt.Sprintf("dataio: line %d: ", early+1)) {
		t.Fatalf("reference error %v", want)
	}
	baseline := runtime.NumGoroutine()
	for _, size := range []int{1, 2, 7, 64, 4096, blockSize} {
		for range 5 {
			_, err := readBlocks(strings.NewReader(in), size, parseGeoms)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("size %d: error %v, want %v", size, err, want)
			}
		}
	}
	noGoroutinesLeft(t, baseline)
}

// TestReadLineTooLong keeps bufio.Scanner's 1 MiB line limit: a line of
// 1 MiB or more fails with bufio.ErrTooLong in both readers, unless a
// bad line comes before it; one byte shorter is accepted.
func TestReadLineTooLong(t *testing.T) {
	long := strings.Repeat("#", maxLine)
	baseline := runtime.NumGoroutine()
	for _, in := range []string{
		"R,0,0,1,1\n" + long + "\nR,0,0,1,1\n",
		"R,0,0,1,1\n" + long,
		"R,0,0,1,1\n  " + long[2:] + "\r\n",
	} {
		if _, err := referenceReadDataset(strings.NewReader(in)); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("reference: %v", err)
		}
		if _, err := ReadDataset(strings.NewReader(in)); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("ReadDataset: %v, want bufio.ErrTooLong", err)
		}
		if _, err := ReadRects(strings.NewReader(strings.ReplaceAll(in, "R,", ""))); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("ReadRects: %v, want bufio.ErrTooLong", err)
		}
		for _, size := range []int{7, 4096} {
			if _, err := readBlocks(strings.NewReader(in), size, parseGeoms); !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("blocks of %d: %v, want bufio.ErrTooLong", size, err)
			}
		}
	}
	if _, err := ReadDataset(strings.NewReader("X\n" + long + "\n")); err == nil || errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("bad line before a long one: %v, want the bad line's error", err)
	}
	d, err := ReadDataset(strings.NewReader(long[1:] + "\nR,0,0,1,1\n"))
	if err != nil || d.Len() != 1 {
		t.Errorf("line of %d bytes: %v", maxLine-1, err)
	}
	noGoroutinesLeft(t, baseline)
}

// TestReadIOError has r fail mid-stream: the reader returns r's error,
// unless a line before the failure is bad.
func TestReadIOError(t *testing.T) {
	errRead := errors.New("disk on fire")
	failing := func(in string) io.Reader {
		return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errRead))
	}
	baseline := runtime.NumGoroutine()
	for _, size := range []int{3, blockSize} {
		for _, in := range []string{"", "R,0,0,1,1\nL,0,0,1,1\n", "R,0,0,1,1\nL,0,0,1"} {
			if _, err := readBlocks(failing(in), size, parseGeoms); !errors.Is(err, errRead) {
				t.Errorf("size %d, %q: %v, want %v", size, in, err, errRead)
			}
		}
		_, err := readBlocks(failing("R,0,0,1,1\nX,1\nR,0,0,1,1\n"), size, parseGeoms)
		if err == nil || err.Error() != `dataio: line 2: unknown geometry tag "X"` {
			t.Errorf("size %d: %v, want line 2's error", size, err)
		}
	}
	if _, err := ReadRects(failing("0,0,1,1\n")); !errors.Is(err, errRead) {
		t.Errorf("ReadRects: %v, want %v", err, errRead)
	}
	noGoroutinesLeft(t, baseline)
}

// TestReadClosedTriangle: a polygon whose closing vertex repeats the
// first has two distinct vertices once it is dropped. It is an error,
// where the scanner-based reader passed the count check and then
// panicked in geom.NewPolygon.
func TestReadClosedTriangle(t *testing.T) {
	_, err := ReadDataset(strings.NewReader("P,0,0,1,0,0,1,0,0\nP,0,0,1,1,0,0\n"))
	if err == nil || err.Error() != "dataio: line 2: polygon needs 3+ points" {
		t.Fatalf("got %v", err)
	}
}

var benchDataset *spatial.Dataset

// BenchmarkReadDataset parses a 100K-object ROADS CSV (the benchmark's
// dataset kind, a tenth of its size) from memory.
func BenchmarkReadDataset(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, datagen.RealLikeDataset(datagen.Roads, 100_000, 1)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		d, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = d
	}
}

func TestRectsRoundTrip(t *testing.T) {
	rects := datagen.Rects(datagen.Spec{N: 500, Area: 1e-6, Seed: 9})
	var buf bytes.Buffer
	if err := WriteRects(&buf, rects); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) {
		t.Fatalf("read %d rects, wrote %d", len(got), len(rects))
	}
	for i := range got {
		if got[i] != rects[i] {
			t.Fatalf("rect %d: %v != %v", i, got[i], rects[i])
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges, datagen.Tiger} {
		d := datagen.RealLikeDataset(kind, 200, 13)
		var buf bytes.Buffer
		if err := WriteDataset(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != d.Len() {
			t.Fatalf("%v: read %d, wrote %d", kind, got.Len(), d.Len())
		}
		for i := range d.Entries {
			a, b := d.Entries[i].Rect, got.Entries[i].Rect
			// Round-tripping through %g is exact for float64.
			if a != b {
				t.Fatalf("%v: entry %d MBR %v != %v", kind, i, a, b)
			}
		}
	}
}

func TestRectOnlyDatasetRoundTrip(t *testing.T) {
	d := datagen.Dataset(datagen.Spec{N: 50, Area: 1e-4, Seed: 1})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Entries {
		if got.Entries[i].Rect != d.Entries[i].Rect {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0.1,0.1,0.2,0.2\n  \n0.3,0.3,0.4,0.4\n"
	rects, err := ReadRects(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 2 {
		t.Fatalf("got %d rects", len(rects))
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"wrong field count": "0.1,0.2,0.3\n",
		"non-numeric":       "a,b,c,d\n",
		"inverted rect":     "0.5,0.5,0.1,0.9\n",
	}
	for name, in := range cases {
		if _, err := ReadRects(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	geomCases := map[string]string{
		"unknown tag":   "X,0.1,0.2\n",
		"no tag":        "justtext\n",
		"odd coords":    "L,0.1,0.2,0.3\n",
		"short line":    "L,0.1,0.2\n",
		"short polygon": "P,0.1,0.2,0.3,0.4\n",
		"bad rect":      "R,0.5,0.5,0.1,0.9\n",
		"bad float":     "L,x,y,0.3,0.4\n",
	}
	for name, in := range geomCases {
		if _, err := ReadDataset(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestGeomTypesPreserved(t *testing.T) {
	line := geom.NewLineString(geom.Point{X: 0.1, Y: 0.2}, geom.Point{X: 0.3, Y: 0.4})
	poly := geom.NewPolygon(geom.Point{X: 0, Y: 0}, geom.Point{X: 0.1, Y: 0}, geom.Point{X: 0, Y: 0.1})
	var buf bytes.Buffer
	if err := writeGeom(&buf, line); err != nil {
		t.Fatal(err)
	}
	if err := writeGeom(&buf, poly); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Geoms[0].(*geom.LineString); !ok {
		t.Error("linestring type lost")
	}
	if _, ok := d.Geoms[1].(*geom.Polygon); !ok {
		t.Error("polygon type lost")
	}
}
