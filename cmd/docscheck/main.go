// Command docscheck keeps the documentation honest. It runs two checks
// and exits non-zero if either fails:
//
//  1. Metric coverage, in both directions: every metric family the
//     server registers (the names served on GET /metrics) must appear
//     verbatim in docs/OBSERVABILITY.md, and every family a metric-table
//     row of that file documents must be registered, so a deleted family
//     cannot outlive its code in the docs. The name set is obtained by
//     constructing real servers — durable mode, which registers every
//     unsharded group (http, query, index, partition, live, WAL,
//     checkpoint, process), and sharded live mode — so the check cannot
//     drift from the code.
//  2. Link integrity: every relative markdown link in README.md and
//     docs/*.md must point at a file that exists in the repository.
//
// CI runs it via `make docs-check`.
package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/server"
)

// registeredMetricNames builds two throwaway servers — durable mode
// (http, query, index, partition, live, WAL, checkpoint, process
// groups) and sharded live mode (the twolayer_shard_* group) — and
// returns the union of their registries' family names, so every
// registerable metric family is covered.
func registeredMetricNames() ([]string, error) {
	dir, err := os.MkdirTemp("", "docscheck-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seed := twolayer.BuildRects(
		[]twolayer.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		twolayer.Options{GridSize: 4})
	dl, _, err := twolayer.OpenDurable(
		twolayer.Options{GridSize: 4},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: dir, Seed: seed},
	)
	if err != nil {
		return nil, err
	}
	defer dl.Close()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := server.New(server.Config{Durable: dl, Logger: logger})

	sl, err := twolayer.NewShardedLive(
		twolayer.Options{GridSize: 4, Space: twolayer.Rect{MaxX: 1, MaxY: 1}},
		twolayer.LiveOptions{},
		twolayer.ShardedOptions{Shards: 2})
	if err != nil {
		return nil, err
	}
	defer sl.Close()
	ss := server.New(server.Config{ShardedLive: sl, Logger: logger})

	names := s.Metrics().Registry().Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range ss.Metrics().Registry().Names() {
		if !have[n] {
			names = append(names, n)
		}
	}
	return names, nil
}

// metricRowRe matches the first cell of a metric-table row: a line that
// opens with a backquoted twolayer_* family name. Names in prose are not
// rows and are not checked.
var metricRowRe = regexp.MustCompile("(?m)^\\|\\s*`(twolayer_[a-z0-9_]+)`\\s*\\|")

func checkMetricsDocumented(docPath string) (failures []string) {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return []string{err.Error()}
	}
	names, err := registeredMetricNames()
	if err != nil {
		return []string{fmt.Sprintf("building metric registry: %v", err)}
	}
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
		if !strings.Contains(string(doc), name) {
			failures = append(failures,
				fmt.Sprintf("metric %s is registered but not documented in %s", name, docPath))
		}
	}
	for _, m := range metricRowRe.FindAllStringSubmatch(string(doc), -1) {
		if !registered[m[1]] {
			failures = append(failures,
				fmt.Sprintf("metric %s has a table row in %s but no server registers it", m[1], docPath))
		}
	}
	return failures
}

// linkRe matches markdown inline links; images share the syntax with a
// leading "!", which the expression tolerates.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func checkLinks(repoRoot string, files []string) (failures []string) {
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an in-file anchor; the file half must still exist.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
				if target == "" {
					continue
				}
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if !strings.HasPrefix(target, ".") && filepath.IsAbs(target) {
				resolved = filepath.Join(repoRoot, target)
			}
			if _, err := os.Stat(resolved); err != nil {
				failures = append(failures,
					fmt.Sprintf("%s: broken link %q (resolved to %s)", file, m[1], resolved))
			}
		}
	}
	return failures
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	mdFiles := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "EXPERIMENTS.md"),
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mdFiles = append(mdFiles, docs...)

	var failures []string
	failures = append(failures,
		checkMetricsDocumented(filepath.Join(root, "docs", "OBSERVABILITY.md"))...)
	failures = append(failures, checkLinks(root, mdFiles)...)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "docscheck:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok (%d markdown files, metric names covered)\n", len(mdFiles))
}
