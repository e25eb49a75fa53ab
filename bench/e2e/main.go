// Command e2e is the repository's benchmark: it builds cmd/spatialserver,
// starts it as a child process on a generated ROADS-like dataset, drives
// it over loopback HTTP from one closed-loop client on one keep-alive
// connection, checks the answers and prints every metric by name.
//
//	go run -C bench/e2e .                                 # all four workloads
//	go run -C bench/e2e . -trace 1                        # plus the layer table
//	go run -C bench/e2e . -workload batch_scan -seed 7 -seconds 12 -trace 0
//	go run -C bench/e2e . -aa 2 -runs 10                  # repeatability table
//	go run -C bench/e2e . -smoke                          # seconds, 20K objects
//
// See bench/README.md for the workloads, the metric → layer map and the
// noise method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: window_serve, batch_scan, mixed_rw, durable_ingest (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the dataset and of every operation stream")
	seconds := flag.Float64("seconds", 12, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	smoke := flag.Bool("smoke", false, "20K objects and three short intervals per workload, to check the harness itself")
	aa := flag.Int("aa", 0, "run this many full sets back to back and print how well their medians agree")
	runs := flag.Int("runs", 5, "with -aa: runs per workload in each set, each with its own seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	chosen := workloads
	if *workloadFlag != "" {
		w := workloadByName(*workloadFlag)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		chosen = []workload{*w}
	}

	modDir, err := moduleDir()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(modDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildServer(outDir)
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		bin: bin, outDir: outDir,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}

	// A run owns child processes and a scratch directory; an interrupt
	// must not leave either behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		removeRunDirs(outDir)
		os.Exit(130)
	}()

	if *aa > 0 {
		if err := runAA(cfg, chosen, *aa, *runs); err != nil {
			fatal(err)
		}
		return
	}

	// The last line of standard output is one result object: that of the
	// workload asked for, or of all four with every metric prefixed by its
	// workload's name.
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		cfg.w = w
		res, err := run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		name := "result-" + w.name + ".json"
		if cfg.trace {
			name = "layers-" + w.name + ".json"
		}
		if err := writeJSON(filepath.Join(outDir, name), res); err != nil {
			fatal(err)
		}
		printResult(res)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(chosen) > 1 {
				name = w.name + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench/e2e:", err)
	os.Exit(2)
}

// printResult prints one run's metrics by name with unit, and for
// end-to-end metrics the bound.
func printResult(res *result) {
	kind := "end-to-end"
	defs := endToEnd
	if res.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Printf("== %s (%s, seed %d): attempted %d, failed %d, %d measured rounds of %d timed operations, raw %.1f ops/s\n",
		res.Workload, kind, res.Env.Seed, res.Attempted, res.Failed, len(res.RoundS), res.Samples, res.RawOpsPerSec)
	for _, d := range defs {
		m := res.Metrics[d.name]
		if res.Traced {
			fmt.Printf("  %-28s %14.4f %s\n", d.name, m.Value, m.Unit)
		} else {
			fmt.Printf("  %-28s %14.4f %-4s (%s is better, bound %.0f%%)\n", d.name, m.Value, m.Unit, d.better, 100*d.bound)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	for _, e := range res.Errors {
		fmt.Println("  FAILED:", e)
	}
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
