#!/usr/bin/env bash
# Builds the call-path benchmark inside the checkout and runs it with bench/
# as its working directory, passing every argument through. The Go build
# cache and the binary live under .bench_build/ at the repository root and
# the run writes under bench/out/, so nothing outside the checkout is
# written. See bench/README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
GOCACHE="$root/.bench_build/gocache" go build -C "$root/bench" -o "$root/.bench_build/callpath-bench" .
cd "$root/bench"
exec "$root/.bench_build/callpath-bench" "$@"
