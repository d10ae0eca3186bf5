#!/usr/bin/env bash
# Runs every experiment at the CI scale (`vtfig --quick`) and pins its
# JSON records: one line per record in tests/golden/vtfig-quick.txt with
# its byte length and FNV-1a-64 digest (the digest of
# tests/golden/checkpoints.txt).
#
#   tools/vtfig_quick.sh           fail unless every acceptance criterion
#                                  holds and every record matches its digest
#   tools/vtfig_quick.sh --bless   rewrite tests/golden/vtfig-quick.txt
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/vtfig-quick.txt
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

if ! cargo run -q --release -p vt-bench --bin vtfig -- --quick \
  --out "$OUT/records" >/dev/null 2>"$OUT/stderr"; then
  cat "$OUT/stderr" >&2
  echo "vtfig_quick: vtfig --quick failed" >&2
  exit 1
fi

python3 - "$OUT/records" >"$OUT/digests" <<'EOF'
import pathlib
import sys

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    data = path.read_bytes()
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    print(f"{path.stem} bytes {len(data)} fnv1a {h:016x}")
EOF

if [[ "${1:-}" == "--bless" ]]; then
  cp "$OUT/digests" "$GOLDEN"
  echo "vtfig_quick: blessed $(wc -l <"$GOLDEN") record digests into $GOLDEN"
elif ! diff -u "$GOLDEN" "$OUT/digests"; then
  echo "vtfig_quick: a vtfig --quick record drifted from $GOLDEN; review the" >&2
  echo "             records and re-bless with tools/vtfig_quick.sh --bless" >&2
  exit 1
fi
