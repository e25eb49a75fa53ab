#!/bin/bash
# The benchmark's one command: bash bench/run.sh [flags of bench/e2e].
# Everything the build leaves behind stays inside the checkout, and the
# go command is kept from reaching for the network.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench/e2e"
exec go run . "$@"
