// Package wkt reads and writes geometries in Well-Known Text, the
// interchange format real-world spatial datasets (including the TIGER
// shapefile extracts the paper uses) are commonly distributed in. The
// supported subset covers the library's geometry model:
//
//	POINT (x y)
//	LINESTRING (x1 y1, x2 y2, ...)
//	POLYGON ((x1 y1, ...), ...)      -- only the outer ring is kept
//	MULTIPOLYGON (((...)), ((...)))  -- parsed; the largest ring is kept
//	ENVELOPE (minx, maxx, miny, maxy) -- the OGC bounding-box extension
//
// Parsing is case-insensitive and whitespace-tolerant. EMPTY geometries
// and unsupported types produce descriptive errors.
package wkt

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/twolayer/twolayer/internal/floatconv"
	"github.com/twolayer/twolayer/internal/geom"
)

// Parse decodes one WKT geometry.
func Parse(s string) (geom.Geometry, error) {
	p := &parser{in: s}
	g, err := p.geometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("wkt: trailing input at offset %d", p.pos)
	}
	return g, nil
}

// Format encodes a geometry as WKT.
func Format(g geom.Geometry) string {
	var sb strings.Builder
	switch t := g.(type) {
	case geom.PointGeometry:
		fmt.Fprintf(&sb, "POINT (%s %s)", num(t.X), num(t.Y))
	case *geom.LineString:
		sb.WriteString("LINESTRING (")
		writePoints(&sb, t.Points)
		sb.WriteString(")")
	case *geom.Polygon:
		sb.WriteString("POLYGON ((")
		writePoints(&sb, t.Ring)
		// WKT rings repeat the first vertex to close.
		fmt.Fprintf(&sb, ", %s %s))", num(t.Ring[0].X), num(t.Ring[0].Y))
	case geom.RectGeometry:
		r := geom.Rect(t)
		fmt.Fprintf(&sb, "ENVELOPE (%s, %s, %s, %s)",
			num(r.MinX), num(r.MaxX), num(r.MinY), num(r.MaxY))
	default:
		r := g.MBR()
		fmt.Fprintf(&sb, "ENVELOPE (%s, %s, %s, %s)",
			num(r.MinX), num(r.MaxX), num(r.MinY), num(r.MaxY))
	}
	return sb.String()
}

func num(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func writePoints(sb *strings.Builder, pts []geom.Point) {
	for i, p := range pts {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s %s", num(p.X), num(p.Y))
	}
}

// parser is a tiny recursive-descent WKT reader.
type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' ||
		p.in[p.pos] == '\n' || p.in[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("wkt: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier ([A-Za-z]+) and returns it uppercased.
func (p *parser) keyword() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToUpper(p.in[start:p.pos])
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

// peek reports whether the next non-space byte is c, without consuming.
func (p *parser) peek(c byte) bool {
	p.skipSpace()
	return p.pos < len(p.in) && p.in[p.pos] == c
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, p.errf("expected number")
	}
	v, err := floatconv.ParseFloat(p.in[start:p.pos])
	if err != nil {
		return 0, p.errf("bad number %q", p.in[start:p.pos])
	}
	return v, nil
}

// point reads "x y".
func (p *parser) point() (geom.Point, error) {
	x, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// pointList reads "( x y, x y, ... )".
func (p *parser) pointList() ([]geom.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []geom.Point
	for {
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		p.skipSpace()
		if p.peek(',') {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

// ringList reads "( (ring), (ring), ... )" and returns the rings.
func (p *parser) ringList() ([][]geom.Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var rings [][]geom.Point
	for {
		ring, err := p.pointList()
		if err != nil {
			return nil, err
		}
		rings = append(rings, ring)
		if p.peek(',') {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return rings, nil
}

func (p *parser) geometry() (geom.Geometry, error) {
	kw := p.keyword()
	if kw == "" {
		return nil, p.errf("expected geometry type")
	}
	if p.keywordIsEmpty() {
		return nil, p.errf("EMPTY geometry not supported")
	}
	switch kw {
	case "POINT":
		pts, err := p.pointList()
		if err != nil {
			return nil, err
		}
		if len(pts) != 1 {
			return nil, p.errf("POINT needs exactly one coordinate pair")
		}
		return geom.PointGeometry(pts[0]), nil
	case "LINESTRING":
		pts, err := p.pointList()
		if err != nil {
			return nil, err
		}
		if len(pts) < 2 {
			return nil, p.errf("LINESTRING needs at least two points")
		}
		return geom.NewLineString(pts...), nil
	case "POLYGON":
		rings, err := p.ringList()
		if err != nil {
			return nil, err
		}
		return polygonFromRing(rings[0])
	case "MULTIPOLYGON":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var best []geom.Point
		bestArea := -1.0
		for {
			rings, err := p.ringList()
			if err != nil {
				return nil, err
			}
			poly, err := polygonFromRing(rings[0])
			if err != nil {
				return nil, err
			}
			if a := poly.(*geom.Polygon).Area(); a > bestArea {
				best, bestArea = rings[0], a
			}
			if p.peek(',') {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return polygonFromRing(best)
	case "ENVELOPE":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var vals [4]float64
		for i := 0; i < 4; i++ {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			vals[i] = v
			if i < 3 {
				if err := p.expect(','); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		r := geom.Rect{MinX: vals[0], MaxX: vals[1], MinY: vals[2], MaxY: vals[3]}
		if !r.Valid() {
			return nil, p.errf("invalid envelope %v", r)
		}
		return geom.RectGeometry(r), nil
	default:
		return nil, p.errf("unsupported geometry type %q", kw)
	}
}

// keywordIsEmpty consumes EMPTY if present.
func (p *parser) keywordIsEmpty() bool {
	save := p.pos
	if p.keyword() == "EMPTY" {
		return true
	}
	p.pos = save
	return false
}

// polygonFromRing validates a WKT ring (closed, >= 4 points including the
// repeated closing vertex) and builds a Polygon.
func polygonFromRing(ring []geom.Point) (geom.Geometry, error) {
	if len(ring) >= 2 && ring[0] == ring[len(ring)-1] {
		ring = ring[:len(ring)-1]
	}
	if len(ring) < 3 {
		return nil, fmt.Errorf("wkt: polygon ring needs at least three distinct vertices")
	}
	// Not geom.NewPolygon: it would drop a closing vertex again, and panic
	// on a ring such as (0 0, 0 0, 0 0, 0 0) that this check let through.
	return &geom.Polygon{Ring: ring}, nil
}
