package dataio

import (
	"bytes"
	"strings"
	"testing"

	"github.com/twolayer/twolayer/internal/datagen"
)

func TestWKTRoundTrip(t *testing.T) {
	for _, kind := range []datagen.RealLike{datagen.Roads, datagen.Edges, datagen.Tiger} {
		d := datagen.RealLikeDataset(kind, 300, 21)
		var buf bytes.Buffer
		if err := WriteWKT(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := ReadWKT(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != d.Len() {
			t.Fatalf("%v: %d of %d survived", kind, got.Len(), d.Len())
		}
		for i := range d.Entries {
			if got.Entries[i].Rect != d.Entries[i].Rect {
				t.Fatalf("%v: entry %d MBR changed", kind, i)
			}
		}
	}
}

func TestReadWKTSkipsAndErrors(t *testing.T) {
	in := "# comment\n\nPOINT (1 2)\nLINESTRING (0 0, 1 1)\n"
	d, err := ReadWKT(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("read %d", d.Len())
	}
	if _, err := ReadWKT(strings.NewReader("TRIANGLE (0 0, 1 1, 2 2)\n")); err == nil {
		t.Error("expected error for unsupported type")
	}
	// The WKT number scanner takes no "Inf" or "NaN", and an overflow
	// fails ParseFloat: no non-finite coordinate gets in.
	for _, in := range []string{
		"POINT (1 2)\nPOINT (1e400 0)\n",
		"POINT (1 2)\nLINESTRING (0 0, Inf 1)\n",
		"POINT (1 2)\nPOLYGON ((0 0, NaN 0, 1 1, 0 0))\n",
		"POINT (1 2)\nLINESTRING (0 0, 1 -1e309)\n",
	} {
		if _, err := ReadWKT(strings.NewReader(in)); err == nil || !strings.HasPrefix(err.Error(), "dataio: line 2: ") {
			t.Errorf("ReadWKT(%q): error %v, want one naming line 2", in, err)
		}
	}
}
