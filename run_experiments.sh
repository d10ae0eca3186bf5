#!/bin/bash
# Regenerates every table and figure of the paper (full scale; --quick
# for the CI smoke scale). Options go to vtfig: NAME..., --quick, --out DIR.
set -e
cd "$(dirname "$0")"
exec cargo run --release -q -p vt-bench --bin vtfig -- "$@"
