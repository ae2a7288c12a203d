#!/usr/bin/env bash
# Builds lsrbench from source and runs `lsrbench run` with the given
# arguments, e.g.
#   bash bench/suite/run.sh --workload open-weak --seed 1 --seconds 10 --trace 0
# Run it from the root of a checkout. Build output goes to .bench_build/ and
# to standard error, so the last line of standard output is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi

dune build --root . --build-dir .bench_build ./bench/suite/lsrbench.exe 1>&2
exec .bench_build/default/bench/suite/lsrbench.exe run --out .bench_build/lsrbench "$@"
