#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. Arguments go to the binary unchanged; `run.sh --help` lists them.
#
#   benchmark/run.sh                      all six workloads -> out/results.json
#   benchmark/run.sh --trace              traced run -> out/layers.json, out/trace.json
#   benchmark/run.sh --smoke              same code, tiny scale, one pass
#   benchmark/run.sh --compare A B        B against A within BENCHMARK.json's bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; by hand the root workspace's target/
# is shared, as benchmark/.cargo/config.toml does for cargo run inside it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

VT_PERF_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
VT_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export VT_PERF_COMMIT VT_PERF_RUSTC
exec "$CARGO_TARGET_DIR/release/vt-perf" "$@"
