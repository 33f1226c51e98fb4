#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (--workload NAME --seed N --seconds S
# --trace 0|1). Build output goes to stderr so the JSON result stays the
# last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not a fom checkout (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --cache disabled --display quiet \
  ./perfbench/main.exe >&2
exec .bench_build/default/perfbench/main.exe "$@"
