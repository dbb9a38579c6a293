#!/usr/bin/env bash
# Builds and runs refbench from the repository root, keeping the Go build
# cache, temporary files and every output under bench/.build in the
# checkout. Arguments pass through to the harness, e.g.
#
#   bash bench/run.sh --workload batch-cold --seed 1 --seconds 28 --trace 0
#
# See bench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/bench/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/refbench" .
exec "$out/refbench" "$@"
