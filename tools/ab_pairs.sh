#!/usr/bin/env bash
# Alternating A/B pairs of the benchmark's `wall_s` on two revisions.
#
#   tools/ab_pairs.sh <base-rev> <change-rev> <workload> [pairs] [seconds]
#
# Builds `vt-perf` for each revision from a `git archive` copy in a work
# directory, so the checkout (and its benchmark/Cargo.lock) is never
# touched, then runs `vt-perf --workload W --seed N --seconds S --trace 0`
# `pairs` times per side (default 10 pairs of 10 s), alternating which
# side runs first. It prints every run, each side's median and quartiles,
# the pairs the change won (lower `wall_s`; ties count for neither) and
# whether a gain may be claimed: at least nine tenths of the pairs won,
# and the medians further apart than the base's interquartile range.
#
# Environment: AB_SEED (default 1) is the workload seed of every run;
# AB_WORK names the work directory (default: a new temporary one, removed
# at exit), so a second call with the same AB_WORK reuses the builds. Each
# run's full output (every end-to-end metric) is kept there as
# runs/<workload>-<pair>-<side>.txt.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
  echo "usage: tools/ab_pairs.sh <base-rev> <change-rev> <workload> [pairs] [seconds]" >&2
  exit 2
fi
base_rev=$1 change_rev=$2 workload=$3 pairs=${4:-10} seconds=${5:-10}
seed=${AB_SEED:-1}
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)

if [[ -n "${AB_WORK:-}" ]]; then
  work=$AB_WORK
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

# build <rev> <side>: a fresh archive of <rev> in $work/<side>, built with
# its own target directory; prints the binary's path.
build() {
  local rev=$1 side=$2 sha
  sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
  if [[ "$(cat "$work/$side.sha" 2>/dev/null)" != "$sha" ]]; then
    rm -rf "$work/$side"
    mkdir -p "$work/$side"
    git -C "$repo" archive "$sha" | tar -x -C "$work/$side"
    echo "$sha" >"$work/$side.sha"
  fi
  CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
    --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
  echo "$work/$side-target/release/vt-perf"
}

echo "building $base_rev (base) and $change_rev (change) in $work" >&2
base_bin=$(build "$base_rev" base)
change_bin=$(build "$change_rev" change)

# run <pair> <side> <binary>: one run from the side's own tree; prints
# wall_s.
run() {
  local pair=$1 side=$2 bin=$3 out wall
  out=$(cd "$work/$side" && VT_PERF_COMMIT=$side "$bin" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>&1)
  echo "$out" >"$work/runs/$workload-$pair-$side.txt"
  wall=$(grep -o '"wall_s":{"value":[0-9.eE+-]*' <<<"$out" | head -n1 | sed 's/.*://')
  if [[ -z "$wall" ]] || ! grep -q '"correct":true' <<<"$out"; then
    echo "ab_pairs: the $side run failed its checks or reported no wall_s:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "$wall"
}

mkdir -p "$work/runs"
base_walls=()
change_walls=()
wins=0
echo "pair first  base_wall_s change_wall_s"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    first=base
    b=$(run "$i" base "$base_bin")
    c=$(run "$i" change "$change_bin")
  else
    first=change
    c=$(run "$i" change "$change_bin")
    b=$(run "$i" base "$base_bin")
  fi
  base_walls+=("$b")
  change_walls+=("$c")
  if awk -v b="$b" -v c="$c" 'BEGIN { exit !(c < b) }'; then
    wins=$((wins + 1))
  fi
  printf '%4d %-6s %11s %13s\n' "$i" "$first" "$b" "$c"
done

# quartiles <values...>: "q1 median q3", linearly interpolated.
quartiles() {
  printf '%s\n' "$@" | sort -g | awk '
    { x[NR - 1] = $1 }
    function q(p,   h, lo) {
      h = (NR - 1) * p; lo = int(h)
      return lo + 1 < NR ? x[lo] + (h - lo) * (x[lo + 1] - x[lo]) : x[lo]
    }
    END { printf "%.4f %.4f %.4f\n", q(0.25), q(0.5), q(0.75) }'
}

read -r bq1 bmed bq3 <<<"$(quartiles "${base_walls[@]}")"
read -r cq1 cmed cq3 <<<"$(quartiles "${change_walls[@]}")"
echo "base   ($base_rev): median $bmed s, quartiles $bq1-$bq3 s"
echo "change ($change_rev): median $cmed s, quartiles $cq1-$cq3 s"
awk -v b="$bmed" -v c="$cmed" 'BEGIN { printf "change/base median: %.3f\n", c / b }'
echo "change won $wins of $pairs pairs"
if awk -v w="$wins" -v n="$pairs" -v b="$bmed" -v c="$cmed" -v lo="$bq1" -v hi="$bq3" \
  'BEGIN { exit !(10 * w >= 9 * n && b - c > hi - lo) }'; then
  echo "gain: holds (>= 9/10 of pairs won, median gap > base IQR $(awk -v lo="$bq1" -v hi="$bq3" 'BEGIN { printf "%.4f", hi - lo }') s)"
else
  echo "gain: does not hold"
fi
