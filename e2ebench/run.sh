#!/usr/bin/env bash
# run.sh — build fmserve and the e2ebench program from this checkout, then
# run one benchmark invocation. Every argument is passed to e2ebench:
#
#   bash e2ebench/run.sh --workload fit_census --seed 1 --seconds 25 --trace 0
#
# Run from anywhere; everything the build and the run write (Go build cache,
# binaries, server state, result files) stays under .bench_build/ at the
# checkout root. Stdout carries only the one-line JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/fmserve" ./cmd/fmserve
(cd e2ebench && go build -o "$out/bin/e2ebench" .)

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/bin/e2ebench" -fmserve "$out/bin/fmserve" -commit "$commit" "$@"
