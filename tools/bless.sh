#!/usr/bin/env bash
# One documented command for every re-bless in the repository, replacing
# the scattered `VT_BLESS=1 cargo test ...` invocations:
#
#   tools/bless.sh            re-bless all golden snapshots + tools/api.txt
#   tools/bless.sh --golden   golden snapshots only (tests/golden/*)
#   tools/bless.sh --api      public API surface only (tools/api.txt)
#   tools/bless.sh --bench    re-record the perf baseline (BENCH_0.json);
#                             NOT part of the default: it moves the
#                             regression gate, so only run it on the
#                             reference machine after reviewing the drift
#
# Golden snapshots covered (each test re-writes its own files under
# VT_BLESS=1, then the suite is re-run without it to prove the blessed
# files verify):
#
#   golden        tests/golden/<kernel>.<arch>.json   full run stats
#   metrics       tests/golden/*.prom                 Prometheus exposition
#   model_golden  tests/golden/vtlint.model.json      static model output
#   cpi           tests/golden/cpi.<kernel>.json      CPI stacks
#   hotspots      tests/golden/hotspots.<kernel>.json per-PC profiles
#   checkpoints   tests/golden/checkpoints.txt        checkpoint text digests
#   swapping      tests/golden/swapping.json          stats + CPI where VT swaps
#
# and, through tools/vtfig_quick.sh --bless, tests/golden/vtfig-quick.txt
# (one digest per `vtfig --quick` record).
#
# Review the resulting diff before committing: a bless is an assertion
# that the new numbers are *correct*, not just current.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_TESTS=(golden metrics model_golden cpi hotspots checkpoints swapping)

do_golden=0
do_api=0
do_bench=0
case "${1:-}" in
"") do_golden=1 do_api=1 ;;
--golden) do_golden=1 ;;
--api) do_api=1 ;;
--bench) do_bench=1 ;;
-h | --help)
  sed -n '2,/^set -euo/p' "$0" | head -n -1 | sed 's/^# \{0,1\}//'
  exit 0
  ;;
*)
  echo "bless.sh: unknown argument \`$1\` (try --help)" >&2
  exit 2
  ;;
esac

if [[ $do_golden == 1 ]]; then
  for t in "${GOLDEN_TESTS[@]}"; do
    echo "== bless: $t"
    VT_BLESS=1 cargo test -q -p vt-tests --test "$t" >/dev/null
  done
  echo "== verify: blessed goldens pass without VT_BLESS"
  for t in "${GOLDEN_TESTS[@]}"; do
    cargo test -q -p vt-tests --test "$t" >/dev/null
  done
  tools/vtfig_quick.sh --bless
  tools/vtfig_quick.sh
  echo "bless: goldens OK ($(git status --porcelain tests/golden | wc -l) file(s) changed)"
fi

if [[ $do_api == 1 ]]; then
  echo "== bless: public API surface"
  tools/api_surface.sh --bless
fi

if [[ $do_bench == 1 ]]; then
  echo "== bless: perf baseline (release build, full suite)"
  cargo run -q --release -p vt-bench --bin vtbench -- --out BENCH_0.json >/dev/null
  echo "bless: BENCH_0.json re-recorded; the perf-regression gate now"
  echo "       measures against this machine's numbers"
fi
