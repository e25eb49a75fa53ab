# Standard verify entry point: `make check` is what CI and pre-commit
# runs — build everything, gate on gofmt, vet, then the full test suite
# under the race detector (the server and live-index concurrency tests
# depend on it).

GO ?= go

.PHONY: check build fmt-check vet test test-race test-shuffle race-hot bench bench-test bench-smoke fuzz-short experiments docs-check loc

check: build fmt-check vet test-race bench-test docs-check

build:
	$(GO) build ./...

# Fails (listing the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation gates: every registered /metrics family must be
# documented in docs/OBSERVABILITY.md, every spatialserver flag must have
# a row in docs/SERVER.md's flag table, every exported root package name
# one in DESIGN.md §8's name table and every exported root package
# method one in its method table (all both ways round), and relative
# markdown links and backticked repository paths in README.md, DESIGN.md
# and docs/ must resolve (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

# Tier-1 test run (what the paper-reproduction harness requires).
test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Order-independence gate: run every test twice in a shuffled order, so
# tests leaking state into package-level singletons (or depending on a
# sibling having run first) fail here instead of flaking in -race runs.
test-shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# The concurrency-heavy packages only — a faster race pass for iterating
# on the live (copy-on-write) index, the batch scheduler, the shard
# fan-out, the write-ahead log the apply loop journals to, and the HTTP
# server.
race-hot:
	$(GO) test -race ./internal/core ./internal/shard ./internal/wal ./internal/server

# The repository's benchmark (BENCHMARK.json, bench/README.md): drives
# the real spatialserver over HTTP through four workloads and prints the
# end-to-end metrics (run the script directly to pass harness flags).
bench:
	bash bench/run.sh

# The benchmark harness is a module of its own (bench/go.mod), so tier-1
# `go test ./...` does not reach it: its unit tests plus a smoke-size run
# of all four workloads against a freshly built server. -count=1 because
# that server is built by the test at run time, where the test cache
# cannot see cmd/spatialserver change.
bench-test:
	cd bench && $(GO) test -count=1 ./...

# One iteration of every Go micro-benchmark in the root package, in
# internal/core (BenchmarkPublish), of the CSV reader's and of the HTTP
# handlers', so they keep compiling and running (CI runs this),
# with allocs/op in the log: a callback that starts escaping shows there
# before it shows in ns/op. Use
# `go test -run '^$$' -bench <regexp> -benchmem .` to measure one.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/core ./internal/dataio ./internal/server

# Non-test Go lines outside bench/: the size ROADMAP aim 2 tracks and
# every simplicity PR reports before and after. One line per package the
# ROADMAP quotes, one for everything else, then the total (always last).
LOC_PKGS = core server shard wal dataio

loc:
	@files="$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*')"; \
	for p in $(LOC_PKGS); do \
		printf '%6d internal/%s\n' "$$(echo "$$files" | grep "^./internal/$$p/" | xargs cat | wc -l)" "$$p"; \
	done; \
	printf '%6d other\n' "$$(echo "$$files" | grep -Ev "^./internal/($$(echo $(LOC_PKGS) | tr ' ' '|'))/" | xargs cat | wc -l)"; \
	echo "$$files" | xargs wc -l | tail -1

# Short fuzz pass over every fuzz target (CI runs this): seconds per
# target, catching format-level regressions without a long campaign.
FUZZTIME ?= 10s

fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzWindow$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCover$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCOWChain$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzKNN$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzEngineCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzV1Envelope$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzV1Batch$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzV1Bulk$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzReadDataset$$' -fuzztime $(FUZZTIME) ./internal/dataio

experiments:
	$(GO) run ./cmd/experiments -exp all
