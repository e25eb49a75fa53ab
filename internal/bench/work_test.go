package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/datagen"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// workGolden is the golden file of TestGoldenWorkCounts.
var workGolden = filepath.Join("testdata", "work_counts.json")

// TestGoldenWorkCounts pins the work the 2-layer engine does, counter
// by counter, on a fixed workload: windows, disks, exact versions of
// both (refined with the Lemma 5 secondary filter), their count
// pushdowns, hexagon regions around the disk centers (streamed and
// counted), both batch strategies and kNN, each on a fresh index over
// the same 50K ROADS-like objects, read back from the engine's
// QueryStats total. The counts are exact and free
// of host noise, so a change that must not touch the kernels proves it
// by leaving the file unchanged. A change that alters the work on
// purpose regenerates the file with
//
//	go test ./internal/bench -run GoldenWorkCounts -update
//
// and says which counters moved and why.
func TestGoldenWorkCounts(t *testing.T) {
	d := datagen.RealLikeDataset(datagen.Roads, 50000, 20210419)
	windows := datagen.Windows(d, datagen.QuerySpec{N: 200, RelExtent: 0.01, Seed: 1})
	disks := datagen.Disks(d, datagen.QuerySpec{N: 200, RelExtent: 0.01, Seed: 2})
	search := func(ix *twolayer.Index, q twolayer.Query) {
		if _, err := ix.Search(q, func(twolayer.ID, twolayer.Rect) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	count := func(ix *twolayer.Index, q twolayer.Query) {
		if _, err := ix.SearchCount(q); err != nil {
			t.Fatal(err)
		}
	}
	perWindow := func(run func(*twolayer.Index, twolayer.Query), exact bool) func(*twolayer.Index) {
		return func(ix *twolayer.Index) {
			for i := range windows {
				run(ix, twolayer.Query{Window: &windows[i], Exact: exact, Mode: twolayer.RefineAvoid})
			}
		}
	}
	perDisk := func(run func(*twolayer.Index, twolayer.Query), exact bool) func(*twolayer.Index) {
		return func(ix *twolayer.Index) {
			for i := range disks {
				run(ix, twolayer.Query{Disk: &disks[i], Exact: exact, Mode: twolayer.RefineAvoid})
			}
		}
	}
	// Hexagons around the disk centers, built as BenchmarkRegionQuery
	// builds them: the convex Region form of the same workload.
	hexes := make([]*twolayer.Polygon, len(disks))
	for i, dk := range disks {
		ring := make([]twolayer.Point, 6)
		for j := range ring {
			a := float64(j) / 6 * 2 * 3.14159265
			ring[j] = twolayer.Point{X: dk.Center.X + dk.Radius*math.Cos(a), Y: dk.Center.Y + dk.Radius*math.Sin(a)}
		}
		hexes[i] = twolayer.NewPolygon(ring...)
	}
	perHex := func(run func(*twolayer.Index, twolayer.Query)) func(*twolayer.Index) {
		return func(ix *twolayer.Index) {
			for _, h := range hexes {
				run(ix, twolayer.Query{Region: h})
			}
		}
	}
	workloads := map[string]func(*twolayer.Index){
		"window":       perWindow(search, false),
		"window_exact": perWindow(search, true),
		"window_count": perWindow(count, false),
		"disk":         perDisk(search, false),
		"disk_exact":   perDisk(search, true),
		"disk_count":   perDisk(count, false),
		"region":       perHex(search),
		"region_count": perHex(count),
		"batch_windows_queries": func(ix *twolayer.Index) {
			ix.BatchWindowCounts(windows, twolayer.QueriesBased, 2)
		},
		"batch_windows_tiles": func(ix *twolayer.Index) {
			ix.BatchWindowCounts(windows, twolayer.TilesBased, 2)
		},
		"batch_disks_queries": func(ix *twolayer.Index) {
			ix.BatchDiskCounts(disks, twolayer.QueriesBased, 2)
		},
		"batch_disks_tiles": func(ix *twolayer.Index) {
			ix.BatchDiskCounts(disks, twolayer.TilesBased, 2)
		},
		"knn": func(ix *twolayer.Index) {
			for _, dk := range disks {
				ix.KNN(dk.Center, 10)
			}
		},
	}
	got := make(map[string]twolayer.Stats, len(workloads))
	for name, run := range workloads {
		ix := twolayer.BuildGeoms(d.Geoms, twolayer.Options{})
		run(ix)
		got[name] = ix.QueryStats()
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')

	if *update {
		if err := os.MkdirAll(filepath.Dir(workGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(out, want) {
		var old map[string]twolayer.Stats
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatalf("%s: %v", workGolden, err)
		}
		for name, st := range got {
			if st != old[name] {
				t.Errorf("%s: work counts changed\n got %+v\nwant %+v", name, st, old[name])
			}
		}
		if len(old) != len(got) {
			t.Errorf("%s holds %d workloads, the test runs %d", workGolden, len(old), len(got))
		}
		if !t.Failed() {
			t.Errorf("%s is not in canonical form; regenerate it with -update", workGolden)
		}
	}
}
