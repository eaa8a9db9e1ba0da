#!/usr/bin/env bash
# Build prtb and prtb_bench from source in this checkout, then run
# prtb_bench on the freshly built binary.
#
#   bash bench/e2e/run.sh --workload cli-small --seed 1994 --seconds 20 --trace 0
#
# All arguments go to prtb_bench (see bench/e2e/README.md).  Build output
# goes to stderr, so prtb_bench's last stdout line stays its JSON result.
# The build stays inside the checkout: no shared dune cache.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

DUNE_CACHE=disabled dune build --root . bin/prtb.exe bench/e2e/prtb_bench.exe 1>&2
exec ./_build/default/bench/e2e/prtb_bench.exe --prtb ./_build/default/bin/prtb.exe "$@"
