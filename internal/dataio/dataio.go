// Package dataio serializes datasets and query workloads to a simple CSV
// format, so generated workloads can be stored, inspected and replayed by
// the command-line tools.
//
// Rectangle rows are "minx,miny,maxx,maxy". Geometry rows prepend a type
// tag and vertex list: "L,x1,y1,x2,y2,..." for linestrings and
// "P,x1,y1,..." for polygons; plain rectangles use "R,minx,miny,maxx,maxy".
// Object IDs are implicit row numbers, matching the dense-ID convention.
//
// Both CSV readers stream their input through one block reader that
// parses on GOMAXPROCS workers (readBlocks).
package dataio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

const (
	// blockSize is how many bytes the CSV readers hand one worker at a
	// time. Parsing one takes milliseconds, so the hand-off is noise;
	// 512 KiB to 2 MiB read the benchmark's CSV equally fast, and the
	// smaller the block the less memory the 2·GOMAXPROCS+2 buffers hold
	// and the sooner the last worker finishes.
	blockSize = 1 << 20
	// maxLine is the longest line the readers accept, the limit they had
	// when they read through a bufio.Scanner with a 1 MiB buffer.
	maxLine = 1 << 20
)

var (
	comma   = []byte{','}
	newline = []byte{'\n'}
)

// WriteRects writes one rectangle per line.
func WriteRects(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	for _, r := range rects {
		if _, err := fmt.Fprintf(bw, "%g,%g,%g,%g\n", r.MinX, r.MinY, r.MaxX, r.MaxY); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRects reads rectangles written by WriteRects.
func ReadRects(r io.Reader) ([]geom.Rect, error) {
	return readBlocks(r, blockSize, func(b block) ([]geom.Rect, error) {
		var out []geom.Rect
		err := b.each(func(text []byte) error {
			rect, err := parseRect(text)
			if err != nil {
				return err
			}
			out = append(out, rect)
			return nil
		})
		return out, err
	})
}

// WriteDataset writes a dataset with exact geometries.
func WriteDataset(w io.Writer, d *spatial.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, e := range d.Entries {
		if err := writeGeom(bw, d.Geom(e.ID)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeGeom(w io.Writer, g geom.Geometry) error {
	switch t := g.(type) {
	case *geom.LineString:
		return writeTagged(w, "L", t.Points)
	case *geom.Polygon:
		return writeTagged(w, "P", t.Ring)
	case geom.RectGeometry:
		r := geom.Rect(t)
		_, err := fmt.Fprintf(w, "R,%g,%g,%g,%g\n", r.MinX, r.MinY, r.MaxX, r.MaxY)
		return err
	case geom.PointGeometry:
		_, err := fmt.Fprintf(w, "R,%g,%g,%g,%g\n", t.X, t.Y, t.X, t.Y)
		return err
	default:
		r := g.MBR()
		_, err := fmt.Fprintf(w, "R,%g,%g,%g,%g\n", r.MinX, r.MinY, r.MaxX, r.MaxY)
		return err
	}
}

func writeTagged(w io.Writer, tag string, pts []geom.Point) error {
	var sb strings.Builder
	sb.WriteString(tag)
	for _, p := range pts {
		fmt.Fprintf(&sb, ",%g,%g", p.X, p.Y)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// ReadDataset reads a dataset written by WriteDataset. An error names
// the first bad line; a line of 1 MiB or more fails with
// bufio.ErrTooLong, and an error from r is returned as it is.
func ReadDataset(r io.Reader) (*spatial.Dataset, error) {
	geoms, err := readBlocks(r, blockSize, parseGeoms)
	if err != nil {
		return nil, err
	}
	return spatial.NewGeomDataset(geoms), nil
}

// A block is a run of whole lines of the input.
type block struct {
	data  []byte
	first int // number of data's first line, counting from 1
}

// each calls fn on every line of b that is neither blank nor a '#'
// comment, with surrounding white space trimmed, and returns fn's first
// error prefixed with its line number, or a bare bufio.ErrTooLong at the
// first line of maxLine bytes or more.
func (b block) each(fn func(text []byte) error) error {
	n := b.first
	for data := b.data; len(data) > 0; n++ {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		if len(line) >= maxLine {
			return bufio.ErrTooLong
		}
		text := bytes.TrimSpace(line)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		if err := fn(text); err != nil {
			return fmt.Errorf("dataio: line %d: %w", n, err)
		}
	}
	return nil
}

// readBlocks parses r with parse and returns the values in file order.
//
// The calling goroutine reads r in blocks of at least size bytes, cuts
// each after its last '\n' and carries the partial line into the next
// block; GOMAXPROCS workers parse whole blocks. At most 2·workers+2
// block buffers exist, so memory does not grow with the input. The
// error is the first by line number: a parse error, bufio.ErrTooLong,
// or r's own error once every line before it has parsed. Reading stops
// once a block fails, and every worker has exited when readBlocks
// returns.
func readBlocks[T any](r io.Reader, size int, parse func(block) ([]T, error)) ([]T, error) {
	type result struct {
		vals []T
		err  error
	}
	type job struct {
		block
		out *result
	}
	workers := runtime.GOMAXPROCS(0)
	// A buffer is with the reader (at most two: the block being cut and
	// the one its partial line moves to), queued, or being parsed; the
	// nil tokens are allocated on first use.
	free := make(chan []byte, 2*workers+2)
	for range cap(free) {
		free <- nil
	}
	take := func() []byte {
		if buf := <-free; buf != nil {
			return buf[:0]
		}
		return make([]byte, 0, size)
	}
	jobs := make(chan job, cap(free)) // never full: every job holds a buffer
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.out.vals, j.out.err = parse(j.block); j.out.err != nil {
					failed.Store(true)
				}
				free <- j.data
			}
		}()
	}

	var results []*result
	line, buf := 1, take()
	var err error
	for err == nil && !failed.Load() {
		var n int
		n, err = io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		cut := bytes.LastIndexByte(buf, '\n') + 1
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err, cut = io.EOF, len(buf) // the last line needs no '\n'
		}
		if cut == 0 {
			// A full buffer and no '\n': one line fills it.
			if err == nil && len(buf) >= maxLine {
				err = bufio.ErrTooLong
			} else if err == nil {
				buf = slices.Grow(buf, len(buf))
			}
			continue
		}
		var next []byte
		if err == nil {
			next = append(take(), buf[cut:]...)
		}
		out := new(result)
		results = append(results, out)
		b := block{buf[:cut], line}
		line += bytes.Count(b.data, newline)
		jobs <- job{b, out}
		buf = next
	}
	if err != nil && err != io.EOF {
		results = append(results, &result{err: err})
	}
	close(jobs)
	wg.Wait()

	total := 0
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		total += len(res.vals)
	}
	if total == 0 {
		return nil, nil // as an append loop over no rows leaves it
	}
	vals := make([]T, 0, total)
	for _, res := range results {
		vals = append(vals, res.vals...)
	}
	return vals, nil
}

// parseGeoms parses one block of geometry rows. A counting pass sizes
// one slab each of points, linestrings and polygons for the whole block,
// and every geometry is carved from them with its capacity cut at its
// length, so an append to one geometry cannot write into the next.
// Rectangle rows still box one value each into the interface.
func parseGeoms(b block) ([]geom.Geometry, error) {
	var rows, lines, polys, pts int
	// A bad line fails the parsing pass below with the same error.
	_ = b.each(func(text []byte) error {
		rows++
		if len(text) < 2 || text[1] != ',' {
			return nil
		}
		switch text[0] {
		case 'L':
			lines++
		case 'P':
			polys++
		default:
			return nil
		}
		pts += bytes.Count(text, comma) / 2
		return nil
	})
	p := geomParser{
		pts:   make([]geom.Point, 0, pts),
		lines: make([]geom.LineString, 0, lines),
		polys: make([]geom.Polygon, 0, polys),
	}
	out := make([]geom.Geometry, 0, rows)
	err := b.each(func(text []byte) error {
		g, err := p.parse(text)
		if err != nil {
			return err
		}
		out = append(out, g)
		return nil
	})
	return out, err
}

// A geomParser holds one block's slabs. Appending to a full slab moves
// it, which leaves the geometries already carved from it where they are.
type geomParser struct {
	pts   []geom.Point
	lines []geom.LineString
	polys []geom.Polygon
}

func (p *geomParser) parse(text []byte) (geom.Geometry, error) {
	tag, rest, ok := bytes.Cut(text, comma)
	if !ok {
		return nil, errors.New("missing geometry tag")
	}
	switch string(tag) {
	case "R":
		r, err := parseRect(rest)
		if err != nil {
			return nil, err
		}
		return geom.RectGeometry(r), nil
	case "L":
		pts, err := p.points(rest)
		if err != nil {
			return nil, err
		}
		if len(pts) < 2 {
			return nil, errors.New("linestring needs 2+ points")
		}
		p.lines = append(p.lines, geom.LineString{Points: pts})
		return &p.lines[len(p.lines)-1], nil
	case "P":
		pts, err := p.points(rest)
		if err != nil {
			return nil, err
		}
		// A closing vertex equal to the first is dropped, as
		// geom.NewPolygon does, before the vertex count is checked.
		if len(pts) >= 2 && pts[0] == pts[len(pts)-1] {
			pts = pts[: len(pts)-1 : len(pts)-1]
		}
		if len(pts) < 3 {
			return nil, errors.New("polygon needs 3+ points")
		}
		p.polys = append(p.polys, geom.Polygon{Ring: pts})
		return &p.polys[len(p.polys)-1], nil
	default:
		return nil, fmt.Errorf("unknown geometry tag %q", tag)
	}
}

// points parses a comma-separated coordinate list into the point slab.
func (p *geomParser) points(s []byte) ([]geom.Point, error) {
	n := bytes.Count(s, comma) + 1
	start := len(p.pts)
	var x float64
	for i := range n {
		v, err := nextField(&s, i)
		if err != nil {
			return nil, err
		}
		if i%2 == 0 {
			x = v
		} else {
			p.pts = append(p.pts, geom.Point{X: x, Y: v})
		}
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("odd coordinate count %d", n)
	}
	return p.pts[start:len(p.pts):len(p.pts)], nil
}

// parseRect parses "minx,miny,maxx,maxy" into a valid rectangle.
func parseRect(s []byte) (geom.Rect, error) {
	if n := bytes.Count(s, comma) + 1; n != 4 {
		return geom.Rect{}, fmt.Errorf("have %d fields, want 4", n)
	}
	var v [4]float64
	for i := range v {
		var err error
		if v[i], err = nextField(&s, i); err != nil {
			return geom.Rect{}, err
		}
	}
	r := geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("invalid rect %v", r)
	}
	return r, nil
}

// nextField parses the float before the first comma of *s, field i of
// its row counting from 0, and advances *s past that comma.
func nextField(s *[]byte, i int) (float64, error) {
	field, rest, _ := bytes.Cut(*s, comma)
	*s = rest
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
	if err != nil {
		return 0, fmt.Errorf("field %d: %w", i+1, err)
	}
	return v, nil
}
