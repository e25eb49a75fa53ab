package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// quartileSpread is the distance between the first and third quartile
// of vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method).
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), medianFloat(s))
}

// runAA runs sets full sets back to back — each set is runs runs of every
// workload, run i of every set with seed base+i — and prints, per
// workload and end-to-end metric, each set's median and quartile spread,
// how far the medians disagree, and the bound. The table is also written
// to out/aa.json.
func runAA(cfg runConfig, chosen []workload, sets, runs int) error {
	// vals[workload][metric][set] = the runs' values
	vals := make(map[string]map[string][][]float64)
	for _, w := range chosen {
		vals[w.name] = make(map[string][][]float64)
		for _, d := range endToEnd {
			vals[w.name][d.name] = make([][]float64, sets)
		}
	}
	base := cfg.seed
	for s := 0; s < sets; s++ {
		for i := 0; i < runs; i++ {
			for _, w := range chosen {
				cfg.w, cfg.seed, cfg.trace = w, base+int64(i), false
				began := time.Now()
				res, err := run(cfg)
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", s, i, w.name, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d run %d %s: %d of %d operations failed: %v",
						s, i, w.name, res.Failed, res.Attempted, res.Errors)
				}
				for _, d := range endToEnd {
					vals[w.name][d.name][s] = append(vals[w.name][d.name][s], res.Metrics[d.name].Value)
				}
				cfg.logf("set %d run %d %s: ops_s %.1f p50_us %.1f p95_us %.1f setup_s %.3f recovery_s %.3f rss_peak_mb %.0f (%d rounds, mem walk %.0f/%.0f ms, run took %.1fs)",
					s, i, w.name, res.Metrics["ops_s"].Value, res.Metrics["p50_us"].Value, res.Metrics["p95_us"].Value,
					res.Metrics["setup_s"].Value, res.Metrics["recovery_s"].Value, res.Metrics["rss_peak_mb"].Value,
					len(res.RoundS), res.Env.MemWalkMS[0], res.Env.MemWalkMS[1], time.Since(began).Seconds())
			}
		}
	}

	type row struct {
		Workload     string    `json:"workload"`
		Metric       string    `json:"metric"`
		Unit         string    `json:"unit"`
		Medians      []float64 `json:"medians"`
		Spreads      []float64 `json:"quartile_spreads"`
		Disagreement float64   `json:"disagreement"`
		Bound        float64   `json:"bound"`
		Verdict      string    `json:"verdict"`
	}
	var rows []row
	fmt.Printf("A/A: %d sets of %d runs (seeds %d..%d); disagreement = largest |median - first median| / first median\n",
		sets, runs, base, base+int64(runs)-1)
	fmt.Printf("%-15s %-12s %-4s %s\n", "workload", "metric", "unit", "medians (quartile spread) ... | disagreement | bound | verdict")
	for _, w := range chosen {
		for _, d := range endToEnd {
			r := row{Workload: w.name, Metric: d.name, Unit: d.unit, Bound: d.bound, Verdict: "ok"}
			for s := 0; s < sets; s++ {
				v := vals[w.name][d.name][s]
				r.Medians = append(r.Medians, medianFloat(v))
				r.Spreads = append(r.Spreads, quartileSpread(v))
				r.Disagreement = max(r.Disagreement, math.Abs(ratio(r.Medians[s]-r.Medians[0], r.Medians[0])))
			}
			// Two thirds of the bound is the most two runs of the same
			// code may disagree; a third of it the most a set may
			// spread, set-up time aside (it has three samples a run).
			if r.Disagreement > d.bound*2/3 {
				r.Verdict = "DISAGREES"
			}
			for _, sp := range r.Spreads {
				if sp > d.bound/3 && d.name != "setup_s" && r.Verdict == "ok" {
					r.Verdict = "wide"
				}
			}
			rows = append(rows, r)
			line := fmt.Sprintf("%-15s %-12s %-4s", w.name, d.name, d.unit)
			for s := range r.Medians {
				line += fmt.Sprintf(" %12.4f (%4.1f%%)", r.Medians[s], 100*r.Spreads[s])
			}
			fmt.Printf("%s | %5.1f%% | %3.0f%% | %s\n", line, 100*r.Disagreement, 100*d.bound, r.Verdict)
		}
	}
	return writeJSON(filepath.Join(cfg.outDir, "aa.json"), map[string]any{
		"sets": sets, "runs": runs, "seconds": cfg.seconds,
		"env": environment(cfg, fullObjects, "", "", nil), "rows": rows,
	})
}
