#!/usr/bin/env bash
# Build the benchmark and the service binary from this checkout's
# sources, then run one workload:
#
#   bash perfbench/run.sh --workload corpus-verdict --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run from the root of the checkout. Build output goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from a full checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . -j 2 perfbench/main.exe bin/lll_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --cli ./_build/default/bin/lll_cli.exe "$@"
