#!/usr/bin/env bash
# Repository lint gate: formatting, clippy (warnings are errors), and
# the static kernel analyzer over the built-in workload suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== unsafe audit (one SAFETY-commented block, install_sigint; forbid everywhere else)"
tools/unsafe_audit.sh

echo "== vtlint --suite"
cargo run -q -p vt-analysis --bin vtlint -- --suite

echo "== vtlint --model --suite (static occupancy/VT-benefit model)"
cargo run -q -p vt-analysis --bin vtlint -- --model --suite

echo "== vtlint CLI contract (exit codes + JSON schemas)"
cargo test -q -p vt-analysis --test vtlint_cli

echo "== vtprof --check (trace + metrics validation on one suite kernel)"
VTPROF_TMP="$(mktemp -d)"
cargo run -q -p vt-bench --bin vtprof -- spmv --check \
  --metrics "$VTPROF_TMP/spmv.prom" --out "$VTPROF_TMP"

echo "== vt-isa tests under --release (float results are canonical at any opt-level)"
cargo test -q --release -p vt-isa

echo "== golden stats (suite snapshots must not drift)"
cargo test -q -p vt-tests --test golden

echo "== metrics exposition golden (Prometheus format must not drift)"
cargo test -q -p vt-tests --test metrics

echo "== static model golden (vtlint --model --json output must not drift)"
cargo test -q -p vt-tests --test model_golden

echo "== static-vs-dynamic oracle (model bounds vs observed residency)"
cargo test -q -p vt-tests --test static_model

echo "== vtbench --diff (perf-regression gate against BENCH_0.json)"
VTBENCH_TMP="$(mktemp -d)"
cargo run -q --release -p vt-bench --bin vtbench -- \
  --out "$VTBENCH_TMP/now.json" >/dev/null
cargo run -q --release -p vt-bench --bin vtbench -- \
  --diff BENCH_0.json "$VTBENCH_TMP/now.json" >/dev/null

echo "== vtbench gate trips on a synthetic 5% regression"
cargo run -q --release -p vt-bench --bin vtbench -- \
  --degrade 5 "$VTBENCH_TMP/now.json" "$VTBENCH_TMP/slow.json" >/dev/null
if cargo run -q --release -p vt-bench --bin vtbench -- \
  --diff BENCH_0.json "$VTBENCH_TMP/slow.json" >/dev/null 2>&1; then
  echo "lint: vtbench --diff failed to flag a 5% geomean regression" >&2
  exit 1
fi

echo "== CPI-stack goldens + conservation property (tests/golden/cpi.*.json)"
cargo test -q -p vt-tests --test cpi

echo "== per-PC hotspot profiles (conservation suite, goldens, zero-perturbation)"
cargo test -q -p vt-tests --test hotspots

echo "== vt-bench CLI exit-code contract (vtprof/vtdiff/vtbench/vtsweep/vttrace/vtfig)"
cargo test -q -p vt-bench --test cli_contract

# The paper's shape: all seventeen acceptance criteria at the CI scale,
# with every simulated cell's image checked against the interpreter, and
# every record byte-identical to its pinned digest.
echo "== vtfig --quick (every acceptance criterion; records match tests/golden/vtfig-quick.txt)"
tools/vtfig_quick.sh

echo "== vtprof --annotate/--flame smoke (per-PC profile artifacts)"
VTHOT_TMP="$(mktemp -d)"
cargo run -q --release -p vt-bench --bin vtprof -- bfs --annotate --flame \
  --sms 2 --out "$VTHOT_TMP" >/dev/null
for f in bfs.vt.hotspots.json bfs.vt.collapsed.txt bfs.vt.pcs.trace.json; do
  if [[ ! -s "$VTHOT_TMP/$f" ]]; then
    echo "lint: vtprof --annotate/--flame did not write $f" >&2
    exit 1
  fi
done
cargo run -q --release -p vt-bench --bin vtdiff -- --pc \
  "$VTHOT_TMP/bfs.vt.hotspots.json" "$VTHOT_TMP/bfs.vt.hotspots.json" \
  --assert-zero >/dev/null

# Bit-identity of profiled vs unprofiled stats is asserted exactly by
# `--test hotspots` above (profiling_never_perturbs_the_run); this is
# the wall-clock side: enabling the profiler must not blow up runtime.
# Min-of-3 against a generous 2x bound keeps the gate meaningful but
# robust to a loaded CI machine.
echo "== profiling overhead gate (profiled run within 2x of unprofiled)"
min_ns() {
  local best=
  for _ in 1 2 3; do
    local t0 t1
    t0=$(date +%s%N)
    cargo run -q --release -p vt-bench --bin vtprof -- sgemm \
      --sms 2 --out "$VTHOT_TMP" "$@" >/dev/null
    t1=$(date +%s%N)
    local dt=$((t1 - t0))
    if [[ -z "$best" || $dt -lt $best ]]; then best=$dt; fi
  done
  echo "$best"
}
plain_ns=$(min_ns)
prof_ns=$(min_ns --profile)
if ((prof_ns > 2 * plain_ns)); then
  echo "lint: profiling overhead gate failed:" \
    "profiled ${prof_ns}ns vs unprofiled ${plain_ns}ns (> 2x)" >&2
  exit 1
fi

echo "== vtdiff --assert-zero (two runs of the same build are cycle-identical)"
cargo run -q --release -p vt-bench --bin vtbench -- \
  --out "$VTBENCH_TMP/again.json" >/dev/null
cargo run -q --release -p vt-bench --bin vtdiff -- \
  "$VTBENCH_TMP/now.json" "$VTBENCH_TMP/again.json" --assert-zero >/dev/null

# The only parallelism in the repository is grid-level: `--threads`
# shards whole cells across a pool. --check re-runs the grid on one
# thread and requires every cell to be bit-identical.
echo "== vtsweep --check (2-thread grid determinism smoke)"
cargo run -q --release -p vt-bench --bin vtsweep -- \
  spmv bfs --threads 2 --sms 4 --check >/dev/null

echo "== vtsweep --budget (truncation smoke: partial stats, no hang)"
cargo run -q --release -p vt-bench --bin vtsweep -- \
  spmv --arch vt --sms 2 --budget 2000 --check >/dev/null

echo "== vttrace --check (valid corpus accepted, corrupt corpus rejected)"
cargo run -q --release -p vt-bench --bin vttrace -- --check traces/*.trace >/dev/null
if cargo run -q --release -p vt-bench --bin vttrace -- \
  --check traces/corrupt/*.trace >/dev/null 2>&1; then
  echo "lint: vttrace --check accepted a corrupt trace" >&2
  exit 1
fi

echo "== trace round-trip + fuzz robustness (tests/tests/traces.rs)"
cargo test -q -p vt-tests --test traces

echo "== property suite (random kernels: lint-clean, all-arch completion)"
cargo test -q -p vt-tests --test properties

# Release build of benchmark/'s own workspace; every check the full
# benchmark makes (interpreter image, CPI conservation, pooled == unpooled,
# sliced == uninterrupted) on all six workloads at smoke scale, < 10 s warm.
echo "== benchmark smoke (all six workloads' correctness checks)"
benchmark/run.sh --smoke >/dev/null

echo "== public API surface (tools/api.txt must match the source)"
if ! diff -u tools/api.txt <(tools/api_surface.sh); then
  echo "lint: public API changed; review the diff above and re-bless" >&2
  echo "      with tools/api_surface.sh --bless" >&2
  exit 1
fi

echo "lint: OK"
