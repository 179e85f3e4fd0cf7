#!/bin/sh
# Build the server and the benchmark from this checkout, then run the
# benchmark with the given arguments:
#   sh dkbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then DUNE=dune; else DUNE="opam exec -- dune"; fi
$DUNE build --root . ./bin/server_main.exe ./dkbench/dkbench.exe 1>&2
exec ./_build/default/dkbench/dkbench.exe --server ./_build/default/bin/server_main.exe "$@"
