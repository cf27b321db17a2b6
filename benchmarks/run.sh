#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): builds imperf from
# the checkout's source and runs it with the driver's arguments. Everything it
# writes — the Go build cache, the binary, imperf's work directory — goes to
# .imperf-work in this directory, so a run reads and writes only inside the
# checkout. `go build`, unlike `go run`, stamps the binary with the git commit
# when the checkout is a git repository; imperf prints it in its run stamp.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p .imperf-work
export GOCACHE="$PWD/.imperf-work/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o .imperf-work/imperf ./imperf
exec .imperf-work/imperf "$@"
