#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed
# to `main.exe suite` (--workload W --seed N --seconds S --trace 0|1).
# Run from the repository root. Build output, temporary files and
# traces stay under _build/, and the dune cache is off, so nothing is
# written elsewhere.
set -euo pipefail
export DUNE_CACHE=disabled
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp"
dune build --root . --display quiet benchsuite/main.exe 1>&2
exec ./_build/default/benchsuite/main.exe suite "$@"
