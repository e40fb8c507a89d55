#!/usr/bin/env bash
# Builds asapperf and asapd from this checkout, then runs asapperf with the
# given arguments from the repository root. The Go build cache, the go
# command's configuration and telemetry directory, the binaries,
# temporary files and asapd data directories all live under
# .bench_build/, so a run writes nothing outside the checkout.
#
#   bash bench/run.sh --workload paper-np-64 --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -runs 5 -seed 1 -out runs.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/asapd" ./cmd/asapd
(cd bench && go build -o "$out/asapperf" ./asapperf)
exec "$out/asapperf" -asapd "$out/asapd" "$@"
