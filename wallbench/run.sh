#!/bin/sh
# Build the benchmark from source (release profile), then run it:
#   sh wallbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr so the result stays the last stdout line.
set -e
cd "$(dirname "$0")/.."
dune build --root . --profile release ./wallbench/bin/main.exe 1>&2
exec ./_build/default/wallbench/bin/main.exe "$@"
