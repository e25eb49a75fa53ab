package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end at smoke size (20K objects,
// three short intervals), untraced and traced: it builds the real
// spatialserver, drives it over HTTP, checks the answers, kills and
// recovers the durable one, and replays the stream in process.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	outDir := t.TempDir()
	bin, err := buildServer(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 1, trace: trace, smoke: true, bin: bin, outDir: outDir, logf: t.Logf}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (trace=%v): %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace=%v): %d metrics reported, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace=%v): metric %s missing or in unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				for _, name := range []string{"server.handle_us", "dataio.parse_s", "server.evaluate_us", "transport.self_us"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			if res.Env.StreamHash == "" || res.Env.DatasetHash == "" || len(res.RoundS) == 0 {
				t.Errorf("%s: environment block incomplete: %+v", w.name, res.Env)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(outDir, "run-*")); len(left) > 0 {
		t.Errorf("runs left scratch directories behind: %v", left)
	}
}
