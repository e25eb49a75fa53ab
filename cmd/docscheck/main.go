// Command docscheck keeps the documentation honest. It runs five checks
// and exits non-zero if any fails:
//
//  1. Metric coverage, in both directions: every metric family the
//     server registers (the names served on GET /metrics) must have a
//     metric-table row in docs/OBSERVABILITY.md, and every row must name
//     a registered family, so a deleted family cannot outlive its code
//     in the docs. The name set is obtained by constructing a real
//     durable-mode server, which registers every group (http, query,
//     index, partition, admission, live, WAL, checkpoint, recovery,
//     shard, process), so the check cannot drift from the code. GET /v1/stats
//     renders the same families as JSON, so it covers that document too.
//  2. Flag coverage, in both directions: every flag cmd/spatialserver
//     registers (a flag.<Type>("name", …) call in its main.go, read with
//     go/parser) must have a row in docs/SERVER.md's flag table, and
//     every row must name a registered flag.
//  3. Link integrity: every relative markdown link in README.md,
//     DESIGN.md, EXPERIMENTS.md and docs/*.md must point at a file that
//     exists in the repository, and so must every backticked repository
//     path in README.md, DESIGN.md and docs/*.md (a span starting with
//     internal/, cmd/, ndim/, examples/ or docs/; a trailing .Ident is a
//     Go name and resolves by its directory), so a deleted file or
//     directory cannot outlive its mention.
//  4. Trace field coverage, in both directions: every key of a traced
//     /v1/window answer's "trace" object must have a row in the table
//     under docs/OBSERVABILITY.md "Trace fields", every key of its
//     per-shard spans one under "Shard spans", and every row of either
//     table must name a key the trace emits at that level.
//  5. Root package name coverage, in both directions: every exported
//     top-level name of the root package's non-test files (functions,
//     types, constants and variables, read with go/parser) must appear
//     in the first column of DESIGN.md §8's "Root package: functions,
//     constants, variables and types" table, and every exported method
//     those files declare, by receiver type, in a row of its "Root
//     package: methods" table (the type in the first column, the method
//     in the second); every name in either table must be exported, so a
//     deleted name or method cannot keep its row and a new one cannot
//     ship without one.
//
// CI runs it via `make docs-check`.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/server"
)

// checkServer builds a throwaway durable-mode server — every metric
// group and the trace of a one-shard engine — and runs the metric and
// trace field checks against docPath.
func checkServer(docPath string) []string {
	dir, err := os.MkdirTemp("", "docscheck-wal-")
	if err != nil {
		return []string{err.Error()}
	}
	defer os.RemoveAll(dir)
	seed := twolayer.BuildRects(
		[]twolayer.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		twolayer.Options{GridSize: 4})
	dl, _, err := twolayer.OpenDurable(
		twolayer.Options{GridSize: 4},
		twolayer.LiveOptions{},
		twolayer.DurableOptions{Dir: dir, Seed: twolayer.OneShard(seed)},
	)
	if err != nil {
		return []string{fmt.Sprintf("opening a durable index: %v", err)}
	}
	defer dl.Close()
	s := server.New(server.Config{Durable: dl, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	failures := checkRows("metric", s.Metrics().Registry().Names(), nil, docPath, nil, captured(metricRowRe))
	traced := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/window",
			strings.NewReader(`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"trace":true}`))
	}
	keys, err := emittedKeys(s, traced(), "trace", "class_entries_scanned", "shards")
	// queue_wait_us is emitted only when the request queued for admission.
	fields := append(slices.Collect(maps.Keys(keys)), "queue_wait_us")
	failures = append(failures, checkRows("trace field", fields, err, docPath, traceSectionRe, captured(fieldRowRe))...)
	keys, err = emittedKeys(s, traced(), "trace.shards")
	return append(failures, checkRows("shard span field", slices.Collect(maps.Keys(keys)), err, docPath, spanSectionRe, captured(fieldRowRe))...)
}

// emittedKeys serves req and returns the object keys of the JSON answer's
// field (a dotted path; the whole document when empty), collected
// recursively through objects and arrays, except the keys of the
// objects at the paths in data, which are data, not keys.
func emittedKeys(s *server.Server, req *http.Request, field string, data ...string) (map[string]bool, error) {
	keys := make(map[string]bool)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if !slices.Contains(data, path) {
					keys[k] = true
				}
				walk(strings.TrimPrefix(path+"."+k, "."), child)
			}
		case []any:
			for _, child := range v {
				walk(path, child)
			}
		}
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var doc any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || w.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %v", req.Method, req.URL.Path, w.Code, err)
	}
	if field != "" {
		for _, name := range strings.Split(field, ".") {
			obj, _ := doc.(map[string]any)
			if doc = obj[name]; doc == nil {
				return nil, fmt.Errorf("%s %s: the answer has no %q field", req.Method, req.URL.Path, field)
			}
		}
	}
	walk("", doc)
	return keys, nil
}

// metricRowRe, flagRowRe and fieldRowRe match the first cell of a table
// row: a line that opens with a backquoted twolayer_* family name, -flag
// name or JSON field name. Names in prose are not rows. traceSectionRe
// and spanSectionRe capture the sections holding the trace's field table
// and its spans'.
var (
	metricRowRe     = regexp.MustCompile("(?m)^\\|\\s*`(twolayer_[a-z0-9_]+)`\\s*\\|")
	flagRowRe       = regexp.MustCompile("(?m)^\\|\\s*`(-[a-z0-9-]+)`\\s*\\|")
	fieldRowRe      = regexp.MustCompile("(?m)^\\|\\s*`([a-z_]+)`\\s*\\|")
	traceSectionRe  = regexp.MustCompile(`(?ms)^### Trace fields\n(.*?)(?:^#+ |\z)`)
	spanSectionRe   = regexp.MustCompile(`(?ms)^#### Shard spans\n(.*?)(?:^#+ |\z)`)
	rootSectionRe   = regexp.MustCompile(`(?ms)^\*\*Root package: functions, constants, variables and types\.\*\*\n(.*?)(?:^\*\*|\z)`)
	methodSectionRe = regexp.MustCompile(`(?ms)^\*\*Root package: methods\b[^\n]*\n(.*?)(?:^\*\*|\z)`)
	firstCellRe     = regexp.MustCompile(`(?m)^\|([^|\n]*)\|`)
	twoCellsRe      = regexp.MustCompile(`(?m)^\|([^|\n]*)\|([^|\n]*)\|`)
	backtickRe      = regexp.MustCompile("`(\\w+)`")
)

// registeredFlags returns the flags the Go file at path registers, as
// -name: the string literal opening every flag.<Type>(…) call.
func registeredFlags(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 &&
			strings.HasPrefix(types.ExprString(call.Fun), "flag.") {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names = append(names, "-"+name)
			}
		}
		return true
	})
	return names, nil
}

// checkRows fails every registered name without a row in docPath and
// every row naming nothing registered. The rows are what rows reads out
// of the document, or out of section's first group when section is
// non-nil.
func checkRows(kind string, names []string, err error, docPath string, section *regexp.Regexp, rows func(doc string) []string) (failures []string) {
	if err != nil {
		return []string{fmt.Sprintf("listing %ss: %v", kind, err)}
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return []string{err.Error()}
	}
	if section != nil {
		m := section.FindSubmatch(doc)
		if m == nil {
			return []string{fmt.Sprintf("%s has no section for %ss", docPath, kind)}
		}
		doc = m[1]
	}
	documented := make(map[string]bool)
	for _, row := range rows(string(doc)) {
		documented[row] = true
		if !slices.Contains(names, row) {
			failures = append(failures, fmt.Sprintf("%s %s has a row in %s but is not registered", kind, row, docPath))
		}
	}
	for _, name := range names {
		if !documented[name] {
			failures = append(failures, fmt.Sprintf("%s %s is registered but has no row in %s", kind, name, docPath))
		}
	}
	return failures
}

// captured reads a table's rows as what rowRe captures.
func captured(rowRe *regexp.Regexp) func(doc string) []string {
	return func(doc string) (rows []string) {
		for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
			rows = append(rows, m[1])
		}
		return rows
	}
}

// firstCells reads a table's rows as the backticked names in the first
// cell of each.
func firstCells(doc string) (rows []string) {
	for _, cell := range firstCellRe.FindAllStringSubmatch(doc, -1) {
		for _, m := range backtickRe.FindAllStringSubmatch(cell[1], -1) {
			rows = append(rows, m[1])
		}
	}
	return rows
}

// methodCells reads a method table's rows as Type.Method: the
// backticked type of the first cell with each backticked name of the
// second.
func methodCells(doc string) (rows []string) {
	for _, row := range twoCellsRe.FindAllStringSubmatch(doc, -1) {
		for _, typ := range backtickRe.FindAllStringSubmatch(row[1], -1) {
			for _, m := range backtickRe.FindAllStringSubmatch(row[2], -1) {
				rows = append(rows, typ[1]+"."+m[1])
			}
		}
	}
	return rows
}

// exportedNames returns the exported top-level names (functions,
// types, constants, variables) of the non-test Go files in dir, and
// their exported methods as Type.Method.
func exportedNames(dir string) (names, methods []string, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	for _, path := range slices.DeleteFunc(files, func(p string) bool { return strings.HasSuffix(p, "_test.go") }) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				} else if typ := strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"); ast.IsExported(typ) && d.Name.IsExported() {
					methods = append(methods, typ+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						names = append(names, ts.Name.Name)
					} else if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	return slices.DeleteFunc(names, func(n string) bool { return !ast.IsExported(n) }), methods, nil
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

// pathRe matches a backticked span naming a repository path;
// goNameRe matches the Go name trailing a package path, as in
// internal/shard.Engine.
var (
	pathRe   = regexp.MustCompile("`((?:internal|cmd|ndim|examples|docs)/[^`\\s]*)`")
	goNameRe = regexp.MustCompile(`(\.[A-Za-z_]\w*)+$`)
)

func checkPaths(repoRoot string, files []string) (failures []string) {
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		for _, m := range pathRe.FindAllStringSubmatch(string(data), -1) {
			resolved := filepath.Join(repoRoot, m[1])
			if _, err := os.Stat(resolved); err == nil {
				continue
			}
			dir, base := filepath.Split(m[1])
			if pkg := goNameRe.ReplaceAllString(base, ""); pkg != base {
				if _, err := os.Stat(filepath.Join(repoRoot, dir, pkg)); err == nil {
					continue
				}
			}
			failures = append(failures,
				fmt.Sprintf("%s: `%s` names no repository path (resolved to %s)", file, m[1], resolved))
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
	pathFiles := append([]string{filepath.Join(root, "README.md"), filepath.Join(root, "DESIGN.md")}, docs...)

	failures := checkServer(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	flags, err := registeredFlags(filepath.Join(root, "cmd", "spatialserver", "main.go"))
	failures = append(failures, checkRows("flag", flags, err, filepath.Join(root, "docs", "SERVER.md"), nil, captured(flagRowRe))...)
	failures = append(failures, checkLinks(root, mdFiles)...)
	failures = append(failures, checkPaths(root, pathFiles)...)
	names, methods, err := exportedNames(root)
	failures = append(failures, checkRows("root package name", names, err,
		filepath.Join(root, "DESIGN.md"), rootSectionRe, firstCells)...)
	failures = append(failures, checkRows("root package method", methods, err,
		filepath.Join(root, "DESIGN.md"), methodSectionRe, methodCells)...)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "docscheck:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok (%d markdown files, metric names, server flags, trace fields and root package names and methods covered)\n", len(mdFiles))
}
