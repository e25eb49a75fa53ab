package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/twolayer/twolayer/internal/core"
)

// tinyConfig returns a configuration that makes every experiment finish
// in test time.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Out:          buf,
		Scale:        0.002, // ~2000-object datasets
		TimePerPoint: 50 * time.Millisecond,
		Seed:         7,
	}
}

// TestRunUnknown rejects bad experiment ids.
func TestRunUnknown(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestAllExperimentsSmoke runs every experiment at minuscule scale and
// checks each produces its table header.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments smoke test is not short")
	}
	wants := map[string]string{
		"table3": "Table III",
		"table4": "Table IV",
		"table5": "Table V",
		"table6": "Table VI",
		"fig6":   "Figure 6",
		"fig7":   "Figure 7",
		"fig8":   "Figure 8",
		"fig9":   "Figure 9",
		"fig10":  "Figure 10",
		"fig11":  "Figure 11",
		"fig12":  "Figure 12",
		"ext":    "Extensions",
	}
	for id, want := range wants {
		var buf bytes.Buffer
		cfg := tinyConfig(&buf)
		if id == "fig12" {
			// Even the simulated cluster's default overheads would make
			// this slow; the smoke test only checks wiring.
			cfg.Scale = 0.0005
		}
		if err := Run(id, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s output missing %q:\n%s", id, want, buf.String())
		}
	}
}

// TestMethodRegistry sanity: distinct names, all build and answer.
func TestMethodRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range AllMethods() {
		if seen[m.Name] {
			t.Fatalf("duplicate method %q", m.Name)
		}
		seen[m.Name] = true
	}
	if len(AllMethods()) != 9 {
		t.Errorf("Table V compares 9 methods, registry has %d", len(AllMethods()))
	}
	if len(KeyMethods()) != 5 {
		t.Errorf("figures compare 5 methods, registry has %d", len(KeyMethods()))
	}
}

// TestGridFor: the experiments' grid rule, core.SuggestGridSize (the
// library's auto-tuning), stays in bounds.
func TestGridFor(t *testing.T) {
	if g := core.SuggestGridSize(100); g != 64 {
		t.Errorf("SuggestGridSize(100) = %d", g)
	}
	if g := core.SuggestGridSize(100_000_000); g != 4096 {
		t.Errorf("SuggestGridSize(1e8) = %d", g)
	}
	if g := core.SuggestGridSize(1_000_000); g != 1024 {
		t.Errorf("SuggestGridSize(1e6) = %d", g)
	}
}
