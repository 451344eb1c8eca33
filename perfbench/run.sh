#!/usr/bin/env bash
# Builds the benchmark and the libraries it drives from the sources in
# the current directory (the root of a checkout), then runs it with the
# given arguments:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# The dune cache is off so that nothing is written outside the checkout.
set -euo pipefail
exec dune exec --root . --cache=disabled --display=quiet -- ./perfbench/main.exe "$@"
