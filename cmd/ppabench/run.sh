#!/usr/bin/env bash
# Builds ppabench and the daemons it drives (ppaserved, pparouter) from
# this checkout, then runs ppabench with the given arguments. Run it from
# the repository root:
#
#   bash cmd/ppabench/run.sh --workload solve-rotate --seed 1 --seconds 25 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the current directory, so a fresh checkout pays one
# full build on its first run and reuses it afterwards.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd cmd/ppabench
go build -o "$out/bin/" ppamcp/cmd/ppaserved ppamcp/cmd/pparouter . >&2
cd - >/dev/null
exec "$out/bin/ppabench" -bin "$out/bin" "$@"
